/**
 * @file
 * How every command line of the tree (the benches, litmus and
 * faultcampaign) reads a number: the whole argument, in decimal, or it
 * is an error.
 */

#ifndef CSB_SIM_PARSE_NUMBER_HH
#define CSB_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>

namespace csb::sim {

/**
 * Parse all of @p text as a decimal T.  False on an empty or partly
 * numeric string, a sign an unsigned T cannot hold, or overflow.
 */
template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/**
 * Parse the value @p text of option @p flag of program @p prog into
 * @p out; a malformed one prints "<prog>: bad value for <flag>: <text>"
 * and exits 2.
 */
template <typename T>
void
parseFlag(const char *prog, const char *flag, const char *text, T &out)
{
    if (!parseNumber(text, out)) {
        std::cerr << prog << ": bad value for " << flag << ": " << text
                  << "\n";
        std::exit(2);
    }
}

} // namespace csb::sim

#endif // CSB_SIM_PARSE_NUMBER_HH
