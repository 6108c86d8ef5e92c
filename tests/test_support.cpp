/**
 * @file
 * Unit tests for the support layer: RNG determinism and distributions,
 * statistics helpers, table rendering, inline function/vector, the
 * hot-path containers (FlatMap, FlatSet, ObjectPool), forkJoin, and the
 * strict parses of numbers from outside.
 */

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "support/faults.hpp"
#include "support/flat_map.hpp"
#include "support/inline_function.hpp"
#include "support/inline_vec.hpp"
#include "support/object_pool.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gga {
namespace {

TEST(SplitMix64, DeterministicAndDistinct)
{
    SplitMix64 a(42), b(42), c(43);
    const auto a1 = a.next();
    EXPECT_EQ(a1, b.next());
    EXPECT_NE(a1, c.next());
    EXPECT_NE(a.next(), a1);
}

TEST(HashMix, AvalanchesAndIsStable)
{
    EXPECT_EQ(hashMix64(1234), hashMix64(1234));
    EXPECT_NE(hashMix64(1), hashMix64(2));
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Xoshiro, BoundedStaysInBounds)
{
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Xoshiro, DoubleInUnitInterval)
{
    Xoshiro256StarStar rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro, GaussianMoments)
{
    Xoshiro256StarStar rng(11);
    std::vector<double> samples(20000);
    for (auto& s : samples)
        s = rng.nextGaussian();
    const Summary sum = summarize(samples);
    EXPECT_NEAR(sum.mean, 0.0, 0.05);
    EXPECT_NEAR(sum.stddev, 1.0, 0.05);
}

TEST(SplitRng, CounterIsRandomAccess)
{
    // Draw i of stream (s, t) must equal draw 0 of the same stream
    // started at counter i: that is what lets parallel phases jump to
    // any position without replaying the prefix.
    SplitRng seq(42, 7);
    std::vector<std::uint64_t> draws(32);
    for (auto& d : draws)
        d = seq.next();
    for (std::uint64_t i = 0; i < draws.size(); ++i) {
        SplitRng jump(42, 7, i);
        EXPECT_EQ(jump.next(), draws[i]) << "counter " << i;
    }
}

TEST(SplitRng, StreamsAreIndependentAndReproducible)
{
    SplitRng a(42, 1);
    SplitRng a2(42, 1);
    SplitRng b(42, 2);
    SplitRng c(43, 1);
    bool differs_ab = false;
    bool differs_ac = false;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, a2.next());
        differs_ab |= va != b.next();
        differs_ac |= va != c.next();
    }
    EXPECT_TRUE(differs_ab);
    EXPECT_TRUE(differs_ac);
}

TEST(SplitRng, BoundedAndDoubleRanges)
{
    SplitRng rng(7, 0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(SplitRng, GaussianMoments)
{
    SplitRng rng(11, 3);
    std::vector<double> samples(20000);
    for (auto& s : samples)
        s = rng.nextGaussian();
    const Summary sum = summarize(samples);
    EXPECT_NEAR(sum.mean, 0.0, 0.05);
    EXPECT_NEAR(sum.stddev, 1.0, 0.05);
}

TEST(Stats, SummaryBasics)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_NEAR(s.stddev, 1.118, 1e-3);
}

TEST(Stats, SummaryEmpty)
{
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Geomean)
{
    const std::vector<double> v{1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(v), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(TextTable, AlignedTextAndCsv)
{
    TextTable t;
    t.setHeader({"a", "bee"});
    t.addRow({"1", "2"});
    t.addRow({"333"});
    const std::string text = t.toText();
    EXPECT_NE(text.find("a    bee"), std::string::npos);
    EXPECT_NE(text.find("333"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("a,bee\n"), std::string::npos);
    EXPECT_NE(csv.find("1,2\n"), std::string::npos);
}

TEST(TextTable, CsvEscaping)
{
    TextTable t;
    t.setHeader({"x"});
    t.addRow({"has,comma"});
    t.addRow({"has\"quote"});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(FmtHelpers, Format)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPct(0.5), "50.0%");
}

TEST(InlineFunction, CallsAndMoves)
{
    int x = 0;
    InlineFunction<void()> f([&x] { ++x; });
    f();
    EXPECT_EQ(x, 1);
    InlineFunction<void()> g = std::move(f);
    g();
    EXPECT_EQ(x, 2);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(static_cast<bool>(g));
}

TEST(InlineFunction, ReturnsValues)
{
    InlineFunction<int(int)> f([](int v) { return v * 2; });
    EXPECT_EQ(f(21), 42);
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    m[7] = 70;
    m[8] = 80;
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_EQ(m.find(9), nullptr);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.size(), 1u);
    m[7] = 71; // the erase emptied 7's slot; this re-inserts it
    EXPECT_EQ(*m.find(7), 71);
}

/**
 * Sends every key home to one of the table's last four slots, whatever
 * its size: probe runs grow long and wrap past the last slot to the
 * first, so backward-shift deletion must move entries across the wrap.
 */
struct WrappingHash
{
    std::size_t
    operator()(std::uint64_t k) const
    {
        return ~std::size_t{0} - static_cast<std::size_t>(k & 3);
    }
};

template <typename Hash>
void
churnAgainstUnorderedMap(std::uint64_t seed)
{
    FlatMap<std::uint64_t, std::uint64_t, Hash> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256StarStar rng(seed);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.nextBounded(512) * 64;
        switch (rng.nextBounded(5)) {
          case 0:
            m[key] = key + 1;
            ref[key] = key + 1;
            break;
          case 1: {
            const auto [v, inserted] = m.tryEmplace(key);
            const auto [it, want_inserted] = ref.try_emplace(key, 0);
            ASSERT_EQ(inserted, want_inserted) << "op " << i;
            ASSERT_EQ(*v, it->second) << "op " << i;
            *v = it->second = key + i;
            break;
          }
          case 2:
            ASSERT_EQ(m.erase(key), ref.erase(key) != 0) << "op " << i;
            break;
          case 3: {
            std::uint64_t got = 7;
            const auto it = ref.find(key);
            ASSERT_EQ(m.take(key, got), it != ref.end()) << "op " << i;
            if (it == ref.end()) {
                EXPECT_EQ(got, 7u) << "a miss must leave out untouched";
            } else {
                EXPECT_EQ(got, it->second) << "op " << i;
                ref.erase(it);
            }
            break;
          }
          default: {
            const auto it = ref.find(key);
            const std::uint64_t* v = m.find(key);
            if (it == ref.end()) {
                ASSERT_EQ(v, nullptr) << "op " << i;
            } else {
                ASSERT_NE(v, nullptr) << "op " << i;
                ASSERT_EQ(*v, it->second) << "op " << i;
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << i;
    }
    // Every survivor is still reachable after all the shifting.
    for (const auto& [key, val] : ref) {
        ASSERT_NE(m.find(key), nullptr) << key;
        EXPECT_EQ(*m.find(key), val) << key;
    }
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(64), nullptr);
}

TEST(FlatMap, MatchesUnorderedMapUnderChurn)
{
    churnAgainstUnorderedMap<FlatHash<std::uint64_t>>(99);
    churnAgainstUnorderedMap<WrappingHash>(100);
}

TEST(FlatMap, SteadyChurnAtReservedSizeKeepsCapacity)
{
    // Shaped like an L1 MSHR table: reserve 128, then a million fills,
    // each completing a random in-flight line once 128 are live.
    FlatMap<std::uint64_t, std::uint64_t> m;
    m.reserve(128);
    const std::size_t cap = m.capacity();
    ASSERT_GT(cap, 0u);
    std::vector<std::uint64_t> live;
    Xoshiro256StarStar rng(2024);
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
        if (live.size() == 128) {
            const std::size_t at = rng.nextBounded(live.size());
            std::uint64_t val = 0;
            if (i % 2 == 0) {
                ASSERT_TRUE(m.take(live[at], val)) << "op " << i;
                ASSERT_EQ(val, live[at] + 1) << "op " << i;
            } else {
                ASSERT_TRUE(m.erase(live[at])) << "op " << i;
            }
            live[at] = live.back();
            live.pop_back();
        }
        const std::uint64_t line = i * 64;
        const auto [v, inserted] = m.tryEmplace(line);
        ASSERT_TRUE(inserted) << "op " << i;
        *v = line + 1;
        live.push_back(line);
        ASSERT_EQ(m.capacity(), cap) << "op " << i;
    }
    EXPECT_EQ(m.size(), 128u);
    for (const std::uint64_t line : live) {
        ASSERT_NE(m.find(line), nullptr) << line;
        EXPECT_EQ(*m.find(line), line + 1);
    }
}

TEST(FlatSet, MatchesUnorderedSetUnderChurnAcrossTheWrap)
{
    FlatSet<std::uint64_t, WrappingHash> s;
    std::unordered_set<std::uint64_t> ref;
    Xoshiro256StarStar rng(101);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.nextBounded(512);
        switch (rng.nextBounded(3)) {
          case 0:
            ASSERT_EQ(s.insert(key), ref.insert(key).second) << "op " << i;
            break;
          case 1:
            ASSERT_EQ(s.erase(key), ref.erase(key) != 0) << "op " << i;
            break;
          default:
            ASSERT_EQ(s.contains(key), ref.count(key) != 0) << "op " << i;
            break;
        }
        ASSERT_EQ(s.size(), ref.size()) << "op " << i;
    }
    for (const std::uint64_t key : ref)
        ASSERT_TRUE(s.contains(key)) << key;
}

TEST(FlatSet, SteadyChurnAtReservedSizeKeepsCapacity)
{
    FlatSet<std::uint64_t> s;
    s.reserve(128);
    const std::size_t cap = s.capacity();
    ASSERT_GT(cap, 0u);
    std::vector<std::uint64_t> live;
    Xoshiro256StarStar rng(2025);
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
        if (live.size() == 128) {
            const std::size_t at = rng.nextBounded(live.size());
            ASSERT_TRUE(s.erase(live[at])) << "op " << i;
            live[at] = live.back();
            live.pop_back();
        }
        ASSERT_TRUE(s.insert(i)) << "op " << i;
        live.push_back(i);
        ASSERT_EQ(s.capacity(), cap) << "op " << i;
    }
    EXPECT_EQ(s.size(), 128u);
    for (const std::uint64_t key : live)
        ASSERT_TRUE(s.contains(key)) << key;
}

TEST(FlatMap, HoldsMoveOnlyValues)
{
    FlatMap<std::uint32_t, std::unique_ptr<int>> m;
    m[3] = std::make_unique<int>(33);
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_EQ(**m.find(3), 33);
    EXPECT_TRUE(m.erase(3));
}

TEST(ObjectPool, RecyclesStorage)
{
    struct Rec
    {
        int a;
        int b;
    };
    ObjectPool<Rec> pool;
    Rec* x = pool.create(Rec{1, 2});
    EXPECT_EQ(x->a, 1);
    pool.destroy(x);
    EXPECT_EQ(pool.live(), 0u);
    Rec* y = pool.create(Rec{3, 4});
    EXPECT_EQ(y, x); // LIFO recycling hands back the same block
    // Exhaust well past one chunk.
    std::vector<Rec*> live;
    for (int i = 0; i < 500; ++i)
        live.push_back(pool.create(Rec{i, i}));
    EXPECT_EQ(pool.live(), 501u);
    for (Rec* r : live)
        pool.destroy(r);
    pool.destroy(y);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(InlineVec, PushUniqueAndOverflowGuards)
{
    InlineVec<int, 4> v;
    v.pushUnique(1);
    v.pushUnique(2);
    v.pushUnique(1);
    EXPECT_EQ(v.size(), 2u);
    EXPECT_TRUE(v.contains(2));
    EXPECT_FALSE(v.contains(3));
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(ForkJoin, OversizedWidthRunsEachIndexOnceOnCappedThreads)
{
    // Far past what the system can start: the width is capped, and the
    // capped threads stripe over every index.
    constexpr unsigned kIndices = 100000;
    std::vector<int> runs(kIndices, 0);
    std::vector<std::thread::id> ranOn(kIndices);
    forkJoin(kIndices, [&](unsigned t) {
        ++runs[t];
        ranOn[t] = std::this_thread::get_id();
    });
    for (unsigned t = 0; t < kIndices; ++t)
        ASSERT_EQ(runs[t], 1) << "index " << t;
    const std::set<std::thread::id> threads(ranOn.begin(), ranOn.end());
    EXPECT_LE(threads.size(), kMaxThreads);
}

TEST(ForkJoin, FailedThreadStartRunsItsIndicesOnTheCaller)
{
    faults::configure("fork.thread.fail=3"); // third spawn attempt fails
    std::vector<int> runs(8, 0);
    std::vector<std::thread::id> ranOn(8);
    forkJoin(8, [&](unsigned t) {
        ++runs[t];
        ranOn[t] = std::this_thread::get_id();
    });
    const std::uint64_t injected = faults::injectedTotal();
    faults::configure("");
    EXPECT_EQ(injected, 1u);
    for (unsigned t = 0; t < 8; ++t)
        EXPECT_EQ(runs[t], 1) << "index " << t;
    // Threads 1 and 2 started; the caller ran index 0 and every index
    // from the failed start on.
    for (unsigned t : {0u, 3u, 4u, 5u, 6u, 7u})
        EXPECT_EQ(ranOn[t], std::this_thread::get_id()) << "index " << t;
}

TEST(ThreadCount, ParsesWholeDecimalsAndClampsTheRest)
{
    struct Row
    {
        const char* text;
        unsigned want;
    };
    const Row rows[] = {
        {"4", 4},
        {"4x", 1},  // trailing garbage is garbage, not 4
        {"0", 1},
        {"-3", 1},
        {"abc", 1},
        {"", 1},
        {"512", kMaxThreads},
        {"513", kMaxThreads},
        {"4294967296", kMaxThreads}, // 2^32: must not wrap to 0
        {"99999999999999999999", kMaxThreads}, // past 64 bits
    };
    for (const Row& row : rows)
        EXPECT_EQ(parseThreadCount(row.text), row.want)
            << "'" << row.text << "'";
}

TEST(ParseUnsigned, TakesWholeDecimalsUpToTheTargetMaximum)
{
    constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
    struct Row
    {
        const char* text;
        std::uint64_t max;
        std::optional<std::uint64_t> want;
        bool tooLarge;
    };
    const Row rows[] = {
        {"0", 10, 0, false},
        {"10", 10, 10, false},
        {"007", 10, 7, false},
        {"11", 10, std::nullopt, true},
        {"", 10, std::nullopt, false},
        {"-1", kU64Max, std::nullopt, false}, // no wrap to 2^64 - 1
        {"+1", 10, std::nullopt, false},
        {" 1", 10, std::nullopt, false},
        {"1 ", 10, std::nullopt, false},
        {"4x", 10, std::nullopt, false}, // trailing garbage, not 4
        {"0x10", kU64Max, std::nullopt, false},
        {"1e3", kU64Max, std::nullopt, false},
        {"18446744073709551615", kU64Max, kU64Max, false},
        {"18446744073709551616", kU64Max, std::nullopt, true},
        {"99999999999999999999x", kU64Max, std::nullopt, false},
    };
    for (const Row& row : rows) {
        bool tooLarge = !row.tooLarge;
        EXPECT_EQ(parseUnsigned(row.text, row.max, &tooLarge), row.want)
            << "'" << row.text << "'";
        EXPECT_EQ(tooLarge, row.tooLarge) << "'" << row.text << "'";
    }
    // The typed form stops at its type's maximum instead of narrowing:
    // a port of 65536 or 4294967300 threads is an error, not 0 or 4.
    EXPECT_EQ(parseUnsigned<std::uint16_t>("65535"), 65535u);
    EXPECT_EQ(parseUnsigned<std::uint16_t>("65536"), std::nullopt);
    EXPECT_EQ(parseUnsigned<unsigned>("4294967295"), 4294967295u);
    EXPECT_EQ(parseUnsigned<unsigned>("4294967300"), std::nullopt);
    EXPECT_EQ(parseUnsigned<std::uint64_t>("4294967300"), 4294967300u);
}

TEST(ParseUnsignedDeathTest, FlagOutOfRangeIsFatal)
{
    EXPECT_DEATH(parseFlag<std::uint16_t>("--port", "65536"),
                 "--port wants a whole number from 0 to 65535");
    EXPECT_DEATH(parseFlag<unsigned>("--threads", "4294967300"),
                 "--threads wants a whole number");
    EXPECT_EQ(parseFlag<std::uint16_t>("--port", "0"), 0u);
}

TEST(ParseNonNegative, TakesFiniteNumbersWithoutASign)
{
    EXPECT_EQ(parseNonNegative("0.25"), 0.25);
    EXPECT_EQ(parseNonNegative("1"), 1.0);
    EXPECT_EQ(parseNonNegative("1e-3"), 1e-3);
    for (const char* text : {"", "abc", "0.1abc", "-0.1", "nan", "inf"})
        EXPECT_EQ(parseNonNegative(text), std::nullopt) << "'" << text << "'";
}

TEST(ParseScaleDeathTest, OutsideZeroToOneIsFatal)
{
    EXPECT_EQ(parseScale("GGA_SCALE", "0.25"), 0.25);
    EXPECT_EQ(parseScale("--scale", "1"), 1.0);
    EXPECT_DEATH(parseScale("GGA_SCALE", "0"),
                 "GGA_SCALE must be in \\(0, 1\\], got '0'");
    EXPECT_DEATH(parseScale("--scale", "1.5"),
                 "--scale must be in \\(0, 1\\], got '1.5'");
    EXPECT_DEATH(parseScale("--scale", "0.05abc"), "got '0.05abc'");
}

} // namespace
} // namespace gga
