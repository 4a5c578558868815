#include "rpm/common/flags.h"

#include "rpm/common/string_util.h"

namespace rpm {

void FlagParser::AddString(std::string name, std::string default_value,
                           std::string help, std::string* out) {
  *out = default_value;
  flags_.push_back({std::move(name), Type::kString, std::move(help),
                    std::move(default_value), out});
}

void FlagParser::AddInt64(std::string name, int64_t default_value,
                          std::string help, int64_t* out) {
  *out = default_value;
  flags_.push_back({std::move(name), Type::kInt64, std::move(help),
                    std::to_string(default_value), out});
}

void FlagParser::AddUint64(std::string name, uint64_t default_value,
                           std::string help, uint64_t* out) {
  *out = default_value;
  flags_.push_back({std::move(name), Type::kUint64, std::move(help),
                    std::to_string(default_value), out});
}

void FlagParser::AddDouble(std::string name, double default_value,
                           std::string help, double* out) {
  *out = default_value;
  flags_.push_back({std::move(name), Type::kDouble, std::move(help),
                    FormatDouble(default_value, 4), out});
}

void FlagParser::AddBool(std::string name, bool default_value,
                         std::string help, bool* out) {
  *out = default_value;
  flags_.push_back({std::move(name), Type::kBool, std::move(help),
                    default_value ? "true" : "false", out});
}

FlagParser::Flag* FlagParser::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagParser::seen(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return flag.seen;
  }
  return false;
}

Status FlagParser::Assign(Flag* flag, const std::string& value) {
  switch (flag->type) {
    case Type::kString:
      *static_cast<std::string*>(flag->out) = value;
      return Status::OK();
    case Type::kInt64: {
      RPM_ASSIGN_OR_RETURN(*static_cast<int64_t*>(flag->out),
                           ParseInt64(value));
      return Status::OK();
    }
    case Type::kUint64: {
      Result<int64_t> parsed = ParseInt64(value);
      if (!parsed.ok() || *parsed < 0) {
        return Status::InvalidArgument("--" + flag->name +
                                       " expects a non-negative integer");
      }
      *static_cast<uint64_t*>(flag->out) = static_cast<uint64_t>(*parsed);
      return Status::OK();
    }
    case Type::kDouble: {
      RPM_ASSIGN_OR_RETURN(*static_cast<double*>(flag->out),
                           ParseDouble(value));
      return Status::OK();
    }
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag->out) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag->out) = false;
      } else {
        return Status::InvalidArgument("--" + flag->name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      return Status::OK();
    }
  }
  return Status::Unknown("unhandled flag type");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  positional_.clear();
  bool only_positional = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (only_positional || !StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {
      only_positional = true;
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (size_t eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    Flag* flag = Find(body);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (!has_value) {
      if (flag->type == Type::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("--" + body + " needs a value");
      }
    }
    RPM_RETURN_NOT_OK(Assign(flag, value));
    flag->seen = true;
  }
  return Status::OK();
}

std::string FlagParser::Help() const {
  std::string out = program_ + " — " + description_ + "\nflags:\n";
  for (const Flag& flag : flags_) {
    out += "  --" + flag.name + " (default " + flag.default_repr + "): " +
           flag.help + "\n";
  }
  return out;
}

}  // namespace rpm
