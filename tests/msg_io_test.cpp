#include "tokenring/msg/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace tokenring::msg {
namespace {

MessageSet sample_set() {
  MessageSet set;
  set.add({.period = milliseconds(20), .payload_bits = 16'000.0, .station = 0});
  set.add({.period = milliseconds(50.5), .payload_bits = 32'768.0, .station = 3});
  return set;
}

TEST(MsgIo, CsvRoundTrip) {
  const auto original = sample_set();
  const auto parsed = message_set_from_csv(to_csv(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].station, original[i].station);
    EXPECT_DOUBLE_EQ(parsed[i].period, original[i].period);
    EXPECT_DOUBLE_EQ(parsed[i].payload_bits, original[i].payload_bits);
  }
}

TEST(MsgIo, CsvHasHeaderAndRows) {
  const std::string csv = to_csv(sample_set());
  EXPECT_EQ(csv.rfind("station,period_ms,payload_bits\n", 0), 0u);
  EXPECT_NE(csv.find("0,20,16000"), std::string::npos);
}

TEST(MsgIo, ParsesCommentsAndBlankLines) {
  const std::string text =
      "# scenario: two sensors\n"
      "\n"
      "station,period_ms,payload_bits\n"
      "# fast one\n"
      "0, 10, 512\n"
      "1, 20, 1024\n";
  const auto set = message_set_from_csv(text);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_DOUBLE_EQ(set[0].period, milliseconds(10));
  EXPECT_DOUBLE_EQ(set[1].payload_bits, 1'024.0);
}

TEST(MsgIo, EmptySetRoundTrips) {
  const auto set = message_set_from_csv(to_csv(MessageSet{}));
  EXPECT_TRUE(set.empty());
}

TEST(MsgIo, MissingHeaderRejected) {
  EXPECT_THROW(message_set_from_csv("0,10,512\n"), ParseError);
  EXPECT_THROW(message_set_from_csv(""), ParseError);
}

TEST(MsgIo, WrongColumnCountRejected) {
  EXPECT_THROW(message_set_from_csv(
                   "station,period_ms,payload_bits\n0,10\n"),
               ParseError);
  EXPECT_THROW(message_set_from_csv(
                   "station,period_ms,payload_bits\n0,10,512,7\n"),
               ParseError);
}

TEST(MsgIo, NonNumericRejectedWithLineNumber) {
  try {
    message_set_from_csv("station,period_ms,payload_bits\n0,abc,512\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MsgIo, TrailingTextInANumberRejectedWithLineNumber) {
  // Trailing text is an error: "0,50ms,10000x" must not load as 0,50,10000,
  // nor a station of "1e3" as 1.
  const char* bad[] = {
      "station,period_ms,payload_bits\n0,50ms,10000\n",
      "station,period_ms,payload_bits\n0,50,10000x\n",
      "station,period_ms,payload_bits\n1e3,50,10000\n",
      "station,period_ms,payload_bits\n4294967296,50,10000\n",
      "station,period_ms,payload_bits,deadline_ms\n0,50,10000,20ms\n",
  };
  for (const char* text : bad) {
    try {
      message_set_from_csv(text);
      FAIL() << "expected ParseError for: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // Blanks around a cell and exponents in non-integer cells still parse.
  const auto set = message_set_from_csv(
      "station,period_ms,payload_bits\n 2 , 5e1 , 1e4 \n");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].station, 2);
  EXPECT_DOUBLE_EQ(set[0].period, milliseconds(50));
  EXPECT_DOUBLE_EQ(set[0].payload_bits, 10'000.0);
}

TEST(MsgIo, InvalidStreamRejected) {
  // Zero period violates the stream invariant.
  EXPECT_THROW(message_set_from_csv(
                   "station,period_ms,payload_bits\n0,0,512\n"),
               ParseError);
  // Negative payload too.
  EXPECT_THROW(message_set_from_csv(
                   "station,period_ms,payload_bits\n0,10,-5\n"),
               ParseError);
}

TEST(MsgIo, NonFiniteValuesRejectedWithLineNumber) {
  // std::stod parses "inf"/"nan" happily; semantic validation must still
  // reject them, pointing at the offending row.
  const char* bad[] = {
      "station,period_ms,payload_bits\n0,inf,512\n",
      "station,period_ms,payload_bits\n0,nan,512\n",
      "station,period_ms,payload_bits\n0,-inf,512\n",
      "station,period_ms,payload_bits\n0,10,inf\n",
      "station,period_ms,payload_bits\n0,10,nan\n",
      "station,period_ms,payload_bits,deadline_ms\n0,10,512,inf\n",
  };
  for (const char* text : bad) {
    try {
      message_set_from_csv(text);
      FAIL() << "expected ParseError for: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MsgIo, DeadlineBeyondPeriodRejectedWithLineNumber) {
  try {
    message_set_from_csv(
        "station,period_ms,payload_bits,deadline_ms\n"
        "0,10,512,5\n"
        "1,10,512,12\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("D <= P"), std::string::npos) << what;
  }
}

TEST(MsgIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tokenring_io_test.csv")
          .string();
  save_message_set(path, sample_set());
  const auto loaded = load_message_set(path);
  EXPECT_EQ(loaded.size(), 2u);
  std::remove(path.c_str());
}

TEST(MsgIo, MissingFileRejected) {
  EXPECT_THROW(load_message_set("/nonexistent/dir/set.csv"), ParseError);
  EXPECT_THROW(save_message_set("/nonexistent/dir/set.csv", sample_set()),
               ParseError);
}

}  // namespace
}  // namespace tokenring::msg
