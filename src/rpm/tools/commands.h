// Implementation of the `rpminer` command-line tool, separated from main()
// so the commands are unit-testable against in-memory streams.
//
// The subcommands are the rows of one table in commands.cc (kCommands):
// RpminerUsage() lists them and RunRpminer() dispatches from it.

#ifndef RPM_TOOLS_COMMANDS_H_
#define RPM_TOOLS_COMMANDS_H_

#include <iosfwd>
#include <string>

namespace rpm::tools {

/// Dispatches argv[1] to a subcommand. Writes results to `out`,
/// diagnostics to `err`. Returns a process exit code (0 success, 1 usage
/// error, 2 runtime failure).
int RunRpminer(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);

/// Top-level usage text.
std::string RpminerUsage();

}  // namespace rpm::tools

#endif  // RPM_TOOLS_COMMANDS_H_
