#include "rpm/common/flags.h"

#include <gtest/gtest.h>

namespace rpm {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(FlagParserTest, DefaultsAppliedImmediately) {
  FlagParser parser("p", "d");
  std::string s;
  int64_t i = 0;
  parser.AddString("name", "fallback", "h", &s);
  parser.AddInt64("num", 7, "h", &i);
  EXPECT_EQ(s, "fallback");
  EXPECT_EQ(i, 7);
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser parser("p", "d");
  std::string s;
  parser.AddString("name", "", "h", &s);
  auto argv = Argv({"prog", "--name=value"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(s, "value");
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser parser("p", "d");
  int64_t n = 0;
  parser.AddInt64("per", 0, "h", &n);
  auto argv = Argv({"prog", "--per", "360"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(n, 360);
}

TEST(FlagParserTest, BoolVariants) {
  FlagParser parser("p", "d");
  bool a = false, b = true, c = false;
  parser.AddBool("a", false, "h", &a);
  parser.AddBool("b", true, "h", &b);
  parser.AddBool("c", false, "h", &c);
  auto argv = Argv({"prog", "--a", "--b=false", "--c=1"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_TRUE(c);
}

TEST(FlagParserTest, BoolRejectsJunk) {
  FlagParser parser("p", "d");
  bool a = false;
  parser.AddBool("a", false, "h", &a);
  auto argv = Argv({"prog", "--a=maybe"});
  EXPECT_FALSE(
      parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, SeenReportsGivenFlagsEvenAtTheirDefault) {
  FlagParser parser("p", "d");
  int64_t per = 0, rec = 0;
  bool closed = false;
  parser.AddInt64("per", 1, "h", &per);
  parser.AddInt64("min-rec", 1, "h", &rec);
  parser.AddBool("closed", false, "h", &closed);
  EXPECT_FALSE(parser.seen("per"));
  auto argv = Argv({"prog", "--per=1", "--closed=false"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(parser.seen("per"));  // Given, though equal to the default.
  EXPECT_TRUE(parser.seen("closed"));
  EXPECT_FALSE(parser.seen("min-rec"));
  EXPECT_FALSE(parser.seen("unregistered"));
}

TEST(FlagParserTest, UnknownFlagIsError) {
  FlagParser parser("p", "d");
  auto argv = Argv({"prog", "--mystery=1"});
  Status s = parser.Parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown flag"), std::string::npos);
  // The usage block is the caller's to print (once); the status carries
  // only the diagnosis, so it also stays one line inside other messages.
  EXPECT_EQ(s.message().find("flags:"), std::string::npos) << s.message();
  EXPECT_EQ(s.message().find('\n'), std::string::npos) << s.message();
}

TEST(FlagParserTest, MissingValueIsError) {
  FlagParser parser("p", "d");
  int64_t n = 0;
  parser.AddInt64("per", 0, "h", &n);
  auto argv = Argv({"prog", "--per"});
  EXPECT_FALSE(
      parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, MalformedNumberIsError) {
  FlagParser parser("p", "d");
  int64_t n = 0;
  parser.AddInt64("per", 0, "h", &n);
  auto argv = Argv({"prog", "--per=abc"});
  EXPECT_FALSE(
      parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, Uint64RejectsNegative) {
  FlagParser parser("p", "d");
  uint64_t n = 0;
  parser.AddUint64("k", 0, "h", &n);
  auto argv = Argv({"prog", "--k=-3"});
  EXPECT_FALSE(
      parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, DoubleParsing) {
  FlagParser parser("p", "d");
  double d = 0.0;
  parser.AddDouble("scale", 1.0, "h", &d);
  auto argv = Argv({"prog", "--scale=0.25"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_DOUBLE_EQ(d, 0.25);
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser parser("p", "d");
  std::string s;
  parser.AddString("x", "", "h", &s);
  auto argv = Argv({"prog", "first", "--x=1", "second"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(FlagParserTest, DoubleDashStopsFlagParsing) {
  FlagParser parser("p", "d");
  std::string s;
  parser.AddString("x", "", "h", &s);
  auto argv = Argv({"prog", "--", "--x=1"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(s, "");
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"--x=1"}));
}

TEST(FlagParserTest, HelpListsFlags) {
  FlagParser parser("rpminer mine", "mines stuff");
  int64_t per = 360;
  parser.AddInt64("per", 360, "period threshold", &per);
  std::string help = parser.Help();
  EXPECT_NE(help.find("rpminer mine"), std::string::npos);
  EXPECT_NE(help.find("--per"), std::string::npos);
  EXPECT_NE(help.find("period threshold"), std::string::npos);
  EXPECT_NE(help.find("default 360"), std::string::npos);
}

}  // namespace
}  // namespace rpm
