#include "logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace csb {

namespace {
std::atomic<bool> quietFlag{false};
} // namespace

void
setLogQuiet(bool quiet)
{
    quietFlag.store(quiet);
}

bool
logQuiet()
{
    return quietFlag.load();
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " (" << file << ":" << line << ")";
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    if (!logQuiet())
        std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail
} // namespace csb
