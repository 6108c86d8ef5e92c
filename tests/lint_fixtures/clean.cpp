// gga_lint fixture: everything here is ALLOWED — the self-test asserts
// zero findings even when this file is scoped into src/sim/ or the
// byte-identity-gated renderer set. Exercises every deliberate
// exemption in the rules. Not compiled — linted as text by test_lint.
#include <charconv>
#include <cstdio>
#include <new>
#include <string>

// Mentions of rand(), std::unordered_map, new/delete, std::mutex,
// std::stoi, and "%f" in comments must never fire: rules run on a
// comment-stripped view. /* %e inside a block comment is fine too */

namespace gga {

struct Slot
{
    alignas(double) unsigned char storage[sizeof(double)];

    Slot(const Slot&) = delete; // deleted function, not a delete-expr
    Slot& operator=(const Slot&) = delete;
    Slot() = default;
};

double*
emplace(Slot& slot, double v)
{
    return ::new (slot.storage) double(v); // placement new allocates nothing
}

std::string
formatFixed(double v)
{
    char buf[64];
    // Integer conversions are locale-independent; only the float family
    // (%f/%e/%g/%a) follows LC_NUMERIC. "100%% done" is a literal '%'.
    std::snprintf(buf, sizeof(buf), "%d of %u (100%% done)", 1, 2u);
    char out[64];
    const auto res = std::to_chars(out, out + sizeof(out), v,
                                   std::chars_format::fixed, 3);
    return std::string(out, res.ptr);
}

constexpr long kBigCount = 1'000'000; // digit separators, not char literals

const char* kDoc = R"(raw strings may mention std::mutex and rand()
without tripping token rules)";

} // namespace gga
