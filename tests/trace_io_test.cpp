// Tests for address-trace text serialization (round trips, format features
// such as comments, multi-line and name, and line-numbered error
// diagnostics) and for the valgrind/lackey log importer.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace addm::seq {
namespace {

TEST(TraceIo, RoundTripMotionEstimation) {
  MotionEstimationParams p;
  p.img_width = p.img_height = 8;
  p.mb_width = p.mb_height = 4;
  p.m = 0;
  const auto original = motion_estimation_read(p);
  const auto text = write_trace_string(original);
  const auto parsed = read_trace_string(text);
  EXPECT_EQ(parsed.linear(), original.linear());
  EXPECT_EQ(parsed.geometry(), original.geometry());
  EXPECT_EQ(parsed.name(), original.name());
}

TEST(TraceIo, ParsesCommentsAndLayout) {
  const auto t = read_trace_string(
      "# header comment\n"
      "geometry 4 4   # inline comment\n"
      "name demo\n"
      "0 1\n"
      "\n"
      "4 5 # trailing comment\n");
  EXPECT_EQ(t.geometry(), (ArrayGeometry{4, 4}));
  EXPECT_EQ(t.name(), "demo");
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 4, 5}));
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  try {
    read_trace_string("geometry 4 4\n0 1\nbogus\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsMissingGeometry) {
  EXPECT_THROW(read_trace_string("0 1 2\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("# nothing\n"), std::invalid_argument);
}

TEST(TraceIo, RejectsDuplicateGeometry) {
  EXPECT_THROW(read_trace_string("geometry 2 2\ngeometry 2 2\n0\n"),
               std::invalid_argument);
}

TEST(TraceIo, RejectsBadGeometry) {
  EXPECT_THROW(read_trace_string("geometry 0 4\n0\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 4\n0\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 4 4 9\n0\n"), std::invalid_argument);
}

TEST(TraceIo, RejectsOutOfRangeAddress) {
  try {
    read_trace_string("geometry 2 2\n0 4\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos);
  }
}

TEST(TraceIo, RejectsSignedAddressTokens) {
  // "-1" used to slip through std::stoul by wrapping to a huge unsigned
  // value; both sign prefixes must be rejected as non-addresses.
  for (const char* tok : {"-1", "+1"}) {
    try {
      read_trace_string(std::string("geometry 2 2\n0 ") + tok + "\n");
      FAIL() << "expected parse failure for token " << tok;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("not an address"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(TraceIo, RejectsDuplicateName) {
  // `name` used to silently accept a second directive (last one won) while
  // `geometry` rejected duplicates; the two directives now validate alike.
  try {
    read_trace_string("geometry 2 2\nname a\nname b\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate name"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsTrailingNameTokens) {
  // Trailing tokens after the identifier used to be silently dropped.
  try {
    read_trace_string("geometry 2 2\nname demo junk\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trailing token 'junk'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsMissingNameValue) {
  try {
    read_trace_string("geometry 2 2\nname\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected 'name <identifier>'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, NameCommentAndPlacementStillAccepted) {
  // A comment after the identifier is not a trailing token, and the
  // directive may still appear after address lines.
  const auto t = read_trace_string("geometry 2 2\n0 1\nname late # ok\n2\n");
  EXPECT_EQ(t.name(), "late");
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(TraceIo, RejectsEmptyTrace) {
  EXPECT_THROW(read_trace_string("geometry 2 2\n"), std::invalid_argument);
}

TEST(TraceIo, ErrorMessagesArePinned) {
  const struct {
    const char* text;
    const char* what;
  } cases[] = {
      {"0 1 2\n", "trace parse error at line 1: addresses before the geometry directive"},
      {"geometry 2 2\ngeometry 2 2\n0\n", "trace parse error at line 2: duplicate geometry"},
      {"geometry 0 4\n0\n",
       "trace parse error at line 1: expected 'geometry <width> <height>' with positive sizes"},
      {"geometry 4\n0\n",
       "trace parse error at line 1: expected 'geometry <width> <height>' with positive sizes"},
      {"geometry 4 4 9\n0\n", "trace parse error at line 1: trailing token '9'"},
      {"geometry 2 2\n0 4\n", "trace parse error at line 2: address 4 outside the 2x2 array"},
      {"geometry 2 2\n0 -1\n", "trace parse error at line 2: not an address: '-1'"},
      {"geometry 2 2\n0 1e5\n", "trace parse error at line 2: not an address: '1e5'"},
      {"geometry 2 2\nname\n0\n", "trace parse error at line 2: expected 'name <identifier>'"},
      {"geometry 2 2\nname a b\n0\n", "trace parse error at line 2: trailing token 'b'"},
      {"geometry 2 2\nname a\nname b\n0\n", "trace parse error at line 3: duplicate name"},
      {"geometry 2 2\n", "trace parse error: no addresses"},
      {"# nothing\n", "trace parse error: missing geometry"},
  };
  for (const auto& c : cases) {
    try {
      read_trace_string(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(TraceIo, RejectsGeometriesBeyond32BitAddresses) {
  // A 2^32-wide row used to divide by a width truncated to 0 (SIGFPE), and
  // address 2^32 of a 2^32+1-cell array used to be narrowed to address 0.
  EXPECT_THROW(read_trace_string("geometry 4294967296 1\n5\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 4294967297 1\n4294967296\n"),
               std::invalid_argument);
  // The check is on the cell count, whichever dimension is large, and its
  // product cannot overflow; the largest 32-bit array is accepted.
  EXPECT_THROW(AddressTrace({65536, 65536}, {0}), std::invalid_argument);
  EXPECT_THROW(AddressTrace({std::size_t{1} << 33, std::size_t{1} << 31}, {0}),
               std::invalid_argument);
  EXPECT_NO_THROW(AddressTrace({65535, 65537}, {4294967294u}));
}

TEST(TraceIo, WriterWrapsLines) {
  const auto t = incremental({8, 8});
  const auto text = write_trace_string(t);
  // 64 addresses at 16 per line -> at least 4 address lines.
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_GE(lines, 6u);  // header + geometry + name + 4 data lines
}

TEST(TraceIoFile, RoundTripThroughDisk) {
  const auto original = transpose_read({8, 4});
  const std::string path = ::testing::TempDir() + "trace_io_file_roundtrip.trace";
  write_trace_file(path, original);
  const auto parsed = read_trace_file(path);
  EXPECT_EQ(parsed.linear(), original.linear());
  EXPECT_EQ(parsed.geometry(), original.geometry());
  EXPECT_EQ(parsed.name(), original.name());
  std::remove(path.c_str());
}

TEST(TraceIoFile, MissingFileThrowsWithPath) {
  try {
    read_trace_file("/nonexistent/dir/missing.trace");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing.trace"), std::string::npos);
  }
}

TEST(TraceIoFile, UnwritablePathThrows) {
  const auto t = incremental({4, 4});
  EXPECT_THROW(write_trace_file("/nonexistent/dir/out.trace", t), std::runtime_error);
}


LackeyImportOptions geom_opt(std::size_t w, std::size_t h) {
  LackeyImportOptions opt;
  opt.geometry = {w, h};
  return opt;
}

AddressTrace import_text(const std::string& text, const LackeyImportOptions& opt) {
  std::istringstream in(text);
  return import_lackey(in, opt);
}

TEST(LackeyImport, ParsesLoadsStoresAndSkipsChatter) {
  const std::string log =
      "==1234== Lackey, an example Valgrind tool\n"
      "I  0x40001000,4\n"
      " L 40100000,4\n"
      " L 0x40100004,4\n"
      " S 40100008,8\n"
      "\n"
      " M 4010000c,4\n"
      "==1234== done\n";
  const auto t = import_text(log, geom_opt(4, 4));
  // Instruction fetch excluded by default; base = first data address.
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.geometry(), (ArrayGeometry{4, 4}));
}

TEST(LackeyImport, KindsFilterSelectsMarkers) {
  const std::string log =
      "I 1000,4\n L 2000,4\n S 2004,4\n M 2008,4\n";
  LackeyImportOptions opt = geom_opt(8, 8);
  opt.kinds = "S";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0}));
  opt.kinds = "LS";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0, 1}));
  opt.kinds = "I";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0}));
}

TEST(LackeyImport, ExplicitBaseAndWordSize) {
  LackeyImportOptions opt = geom_opt(4, 4);
  opt.auto_base = false;
  opt.base = 0x2000;
  opt.word_bytes = 8;
  // 0x2000 -> word 0, 0x2008 -> word 1, 0x200c folds onto word 1.
  const auto t = import_text(" L 2000,4\n L 2008,4\n L 200c,4\n", opt);
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 1}));
}

TEST(LackeyImport, NameAndTraceIoRoundTrip) {
  LackeyImportOptions opt = geom_opt(4, 4);
  opt.name = "imported";
  const auto t = import_text(" L 1000,4\n L 1004,4\n", opt);
  EXPECT_EQ(t.name(), "imported");
  const auto back = read_trace_string(write_trace_string(t));
  EXPECT_EQ(back.linear(), t.linear());
  EXPECT_EQ(back.name(), t.name());
}

TEST(LackeyImport, ErrorsCarryLineNumbers) {
  const struct {
    const char* log;
    const char* what;
  } cases[] = {
      {" L zz,4\n", "expected hex address"},
      {" L 1000 4\n", "expected ',<size>'"},
      {" L 1000,\n", "expected ',<size>'"},
      {" L 1000,4 junk\n", "trailing token"},
      {" X 1000,4\n", "unrecognized line"},
  };
  for (const auto& c : cases) {
    try {
      import_text(std::string("I 500,4\n") + c.log, geom_opt(8, 8));
      FAIL() << c.log;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(LackeyImport, RejectsOutOfArrayAndBelowBase) {
  try {
    import_text(" L 1000,4\n L 9000,4\n", geom_opt(2, 2));
    FAIL() << "expected out-of-array failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outside the 2x2 array"), std::string::npos)
        << e.what();
  }
  try {
    import_text(" L 1000,4\n L 0800,4\n", geom_opt(8, 8));
    FAIL() << "expected below-base failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("below the base"), std::string::npos)
        << e.what();
  }
}

TEST(LackeyImport, RejectsBadOptionsAndEmptyResult) {
  EXPECT_THROW(import_text(" L 0,4\n", geom_opt(0, 4)), std::invalid_argument);
  LackeyImportOptions bad_word = geom_opt(4, 4);
  bad_word.word_bytes = 0;
  EXPECT_THROW(import_text(" L 0,4\n", bad_word), std::invalid_argument);
  LackeyImportOptions bad_kinds = geom_opt(4, 4);
  bad_kinds.kinds = "LX";
  EXPECT_THROW(import_text(" L 0,4\n", bad_kinds), std::invalid_argument);
  // A log with only instruction fetches has no matching accesses under the
  // default LSM filter.
  EXPECT_THROW(import_text("I 1000,4\n", geom_opt(4, 4)), std::invalid_argument);
  // The geometry limit of every AddressTrace applies to imports too.
  EXPECT_THROW(import_text(" L 0,4\n", geom_opt(std::size_t{1} << 32, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace addm::seq
