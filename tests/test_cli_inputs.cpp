// Strict command-line inputs: a flag value the harnesses cannot honour ends
// the process with exit status 2 and names the valid set, instead of
// silently running something else (class R for an unknown class, the
// default worker count for a non-numeric one).
#include <gtest/gtest.h>

#include "bench/bench_common.hpp"

namespace lpomp {
namespace {

class StrictInputs : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

Options options(std::initializer_list<const char*> args) {
  Options opts;
  for (const char* a : args) opts.parse_arg(a);
  return opts;
}

TEST_F(StrictInputs, EveryKnownClassParses) {
  EXPECT_EQ(bench::klass_by_name("S"), npb::Klass::S);
  EXPECT_EQ(bench::klass_by_name("W"), npb::Klass::W);
  EXPECT_EQ(bench::klass_by_name("A"), npb::Klass::A);
  EXPECT_EQ(bench::klass_by_name("B"), npb::Klass::B);
  EXPECT_EQ(bench::klass_by_name("R"), npb::Klass::R);
}

TEST_F(StrictInputs, UnknownKlassExitsTwoWithValidSet) {
  EXPECT_EXIT(bench::klass_by_name("Q"), ::testing::ExitedWithCode(2),
              "unknown class 'Q'.*valid: S,W,A,B,R");
  EXPECT_EXIT(bench::klass_by_name("s"), ::testing::ExitedWithCode(2),
              "valid: S,W,A,B,R");
}

TEST_F(StrictInputs, NonNumericWorkersExitsTwo) {
  const Options opts = options({"--workers=abc"});
  EXPECT_EXIT(bench::make_engine(opts), ::testing::ExitedWithCode(2),
              "invalid --workers=abc \\(expected a decimal integer\\)");
}

// Checked on the parser alone, so no pool is ever sized from the value.
TEST_F(StrictInputs, NegativeWorkersExitsTwo) {
  const Options opts = options({"--workers=-1"});
  EXPECT_EXIT(bench::workers_from(opts), ::testing::ExitedWithCode(2),
              "invalid --workers=-1 \\(expected 0 for one per core");
}

TEST_F(StrictInputs, IntegerWithTrailingGarbageOrEmptyExitsTwo) {
  EXPECT_EXIT(options({"--trace-store-mb=64MB"}).get_int("trace-store-mb", 1),
              ::testing::ExitedWithCode(2), "expected a decimal integer");
  EXPECT_EXIT(options({"--workers="}).get_int("workers", 0),
              ::testing::ExitedWithCode(2), "expected a decimal integer");
  EXPECT_EXIT(options({"--workers=99999999999999999999"}).get_int("workers", 0),
              ::testing::ExitedWithCode(2), "expected a decimal integer");
}

TEST_F(StrictInputs, NonNumericDoubleExitsTwo) {
  const Options opts = options({"--paging=thp", "--thp-frag=high"});
  EXPECT_EXIT(bench::paging_from(opts), ::testing::ExitedWithCode(2),
              "invalid --thp-frag=high \\(expected a finite number\\)");
  EXPECT_EXIT(options({"--thp-growth=nan"}).get_double("thp-growth", 0.0),
              ::testing::ExitedWithCode(2), "expected a finite number");
}

TEST_F(StrictInputs, WellFormedNumbersStillParse) {
  EXPECT_EQ(options({"--workers=-3"}).get_int("workers", 0), -3);
  EXPECT_EQ(options({}).get_int("workers-unset-knob", 7), 7);
  EXPECT_DOUBLE_EQ(options({"--thp-frag=0.5"}).get_double("thp-frag", 0.0),
                   0.5);
  EXPECT_DOUBLE_EQ(options({}).get_double("thp-unset-knob", 0.15), 0.15);
}

}  // namespace
}  // namespace lpomp
