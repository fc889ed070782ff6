/**
 * @file
 * Helpers shared by the test binaries that compare stats exports.
 */

#ifndef HWGC_TESTS_TEST_UTIL_H
#define HWGC_TESTS_TEST_UTIL_H

#include <cctype>
#include <cstring>
#include <initializer_list>
#include <string>

namespace hwgc::test
{

/**
 * StatsRegistry::uniquePrefix never reuses an instance number within a
 * process, so consecutive runs register as system.hwgc0, system.hwgc1,
 * ... Replace the instance digits after each of @p keys with '#' so
 * exports from different runs become directly comparable strings.
 */
inline std::string
normalizeInstanceIds(std::string s, std::initializer_list<const char *> keys)
{
    for (const char *key : keys) {
        const std::size_t klen = std::strlen(key);
        std::size_t pos = 0;
        while ((pos = s.find(key, pos)) != std::string::npos) {
            const std::size_t digits = pos + klen;
            std::size_t end = digits;
            while (end < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[end]))) {
                ++end;
            }
            s.replace(digits, end - digits, 1, '#');
            pos = digits + 1;
        }
    }
    return s;
}

} // namespace hwgc::test

#endif // HWGC_TESTS_TEST_UTIL_H
