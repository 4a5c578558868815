// Minimal declarative command-line flag parsing for the CLI tools.
//
//   FlagParser parser("rpminer mine", "Mine recurring patterns");
//   int64_t per = 0;
//   parser.AddInt64("per", 1, "period threshold", &per);
//   RPM_RETURN_NOT_OK(parser.Parse(argc, argv));
//
// Accepts --name=value, --name value, and --flag for booleans. Unknown
// flags are errors; everything after "--" or not starting with "--" is
// positional.

#ifndef RPM_COMMON_FLAGS_H_
#define RPM_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rpm/common/status.h"

namespace rpm {

/// Declarative flag registry + parser. Not thread-safe; build, Parse once.
class FlagParser {
 public:
  FlagParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Registration: `out` receives the default now and the parsed value on
  /// Parse(). Pointers must outlive Parse().
  void AddString(std::string name, std::string default_value,
                 std::string help, std::string* out);
  void AddInt64(std::string name, int64_t default_value, std::string help,
                int64_t* out);
  void AddUint64(std::string name, uint64_t default_value, std::string help,
                 uint64_t* out);
  void AddDouble(std::string name, double default_value, std::string help,
                 double* out);
  /// Boolean flags: `--name` sets true, `--name=false` sets false.
  void AddBool(std::string name, bool default_value, std::string help,
               bool* out);

  /// Parses argv[1..); returns InvalidArgument on unknown flags or
  /// malformed values. Idempotent defaults: call order-independent.
  Status Parse(int argc, const char* const* argv);

  /// Whether the last Parse() was given `name`, with any value (the
  /// default included). Flag-combination checks read this.
  bool seen(const std::string& name) const;

  /// Arguments that were not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text listing every registered flag with default and help.
  std::string Help() const;

 private:
  enum class Type { kString, kInt64, kUint64, kDouble, kBool };
  struct Flag {
    std::string name;
    Type type;
    std::string help;
    std::string default_repr;
    void* out;
    bool seen = false;
  };

  Flag* Find(const std::string& name);
  Status Assign(Flag* flag, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rpm

#endif  // RPM_COMMON_FLAGS_H_
