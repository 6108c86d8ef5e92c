// gga_lint fixture: lenient-parse must fire on every lenient number
// parse when the file is scoped anywhere into src/. Not compiled —
// linted as text by test_lint.
#include <cstdlib>
#include <sstream>
#include <string>

namespace gga {

long
lenientSum(const std::string& s, const char* c)
{
    long sum = std::stoi(s) + std::stol(s) + std::stoll(s);
    sum += static_cast<long>(std::stoul(s) + std::stoull(s));
    sum += std::atoi(c) + std::atol(c) + std::atoll(c);
    sum += std::strtol(c, nullptr, 10) + std::strtoll(c, nullptr, 10);
    sum += static_cast<long>(std::strtoul(c, nullptr, 10) +
                             std::strtoull(c, nullptr, 10));
    long streamed = 0;
    std::istringstream(s) >> streamed;
    return sum + streamed;
}

} // namespace gga
