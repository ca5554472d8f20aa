// Strict command-line inputs: a flag value the harnesses cannot honour ends
// the process with exit status 2 and names the valid set, instead of
// silently running something else (class R for an unknown class, the
// default worker count for a non-numeric one, the default strategy for a
// retired one).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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

// The kernel parser the benches' --kernels= and the examples' --kernel=
// share (smt_scaling used to run SP for any unknown name).
TEST_F(StrictInputs, UnknownKernelExitsTwoWithValidSet) {
  EXPECT_EQ(bench::kernel_by_name("GUPS"), npb::Kernel::GUPS);
  EXPECT_EXIT(bench::kernel_by_name("XX"), ::testing::ExitedWithCode(2),
              "unknown kernel 'XX' in --kernel= \\(valid: "
              "BT,CG,FT,SP,MG,GUPS,GT,PC\\)");
  EXPECT_EXIT(bench::kernels_from(options({"--kernels=CG,cg"})),
              ::testing::ExitedWithCode(2),
              "unknown kernel 'cg' in --kernels=CG,cg \\(valid: ");
}

// The retired strategies fail loudly instead of running the default.
TEST_F(StrictInputs, RetiredStrategySpellingsExitTwo) {
  EXPECT_EQ(bench::strategy_from(options({"--strategy=live"})),
            exec::Strategy::Live);
  EXPECT_EQ(bench::strategy_from(options({})), exec::Strategy::Auto);
  for (const char* retired :
       {"--strategy=recorded", "--strategy=analytic", "--strategy=multilane"}) {
    EXPECT_EXIT(bench::strategy_from(options({retired})),
                ::testing::ExitedWithCode(2), "valid: live, auto\\)")
        << retired;
  }
}

/// Runs `command` through the shell; returns its exit status and output.
std::pair<int, std::string> run_command(const std::string& command) {
  std::string output;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, output};
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

// A flag the binary does not read exits 2 naming it, instead of running the
// default: a misspelt --kernel= would run all eight kernels, --help a
// minutes-long class-R sweep, and the retired --no-trace the default
// strategy. Every bench and example main parses through parse_flags, so
// each binary is run with a misspelt flag too.
TEST_F(StrictInputs, UnknownFlagExitsTwo) {
  const std::vector<std::string> own = {"klass", "kernels"};
  const int argc = 3;
  char* ok_argv[] = {const_cast<char*>("bin"), const_cast<char*>("--klass=S"),
                     const_cast<char*>("--kernels=CG"), nullptr};
  EXPECT_EQ(bench::parse_flags(argc, ok_argv, own).get("kernels", ""), "CG");
  for (const std::string flag :
       {"--kernel=CG", "--topology=2x2", "--help", "--no-trace"}) {
    char* argv[] = {const_cast<char*>("bin"), const_cast<char*>("--klass=S"),
                    const_cast<char*>(flag.c_str()), nullptr};
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_EXIT(bench::parse_flags(argc, argv, own),
                ::testing::ExitedWithCode(2),
                "unknown flag " + name + " \\(accepted: --klass, --kernels\\)")
        << flag;
  }

#ifdef LPOMP_CLI_BINARIES
  const std::string binaries = LPOMP_CLI_BINARIES;
  std::size_t checked = 0;
  for (std::size_t start = 0; start < binaries.size();) {
    std::size_t comma = binaries.find(',', start);
    if (comma == std::string::npos) comma = binaries.size();
    const std::string binary = binaries.substr(start, comma - start);
    start = comma + 1;
    const auto [code, output] = run_command("'" + binary + "' --klas=S");
    EXPECT_EQ(code, 2) << binary << ": " << output;
    EXPECT_NE(output.find("unknown flag --klas"), std::string::npos)
        << binary << ": " << output;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
#endif
}

TEST_F(StrictInputs, NonNumericWorkersExitsTwo) {
  const Options opts = options({"--workers=abc"});
  EXPECT_EXIT(bench::make_scheduler(opts), ::testing::ExitedWithCode(2),
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
