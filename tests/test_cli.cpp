// CLI tests: argument parsing, every subcommand end to end (in-process),
// and error handling.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace jigsaw::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = cli_main(args, out, err);
  return {code, out.str(), err.str()};
}

/// A temp-file path private to the running test. ctest runs every test in
/// its own process, in parallel, so a shared fixed name would let one
/// test's TearDown delete a file another test is still reading.
std::string test_path(const std::string& extension) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string("jigsaw_cli_") +
                           info->test_suite_name() + "_" + info->name() +
                           "_" + std::to_string(::getpid()) + extension;
  return (std::filesystem::temp_directory_path() / name).string();
}

class CliFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    mtx_ = test_path(".mtx");
    jsf_ = test_path(".jsf");
    const auto r = run_cli({"generate", "--rows", "64", "--cols", "128",
                            "--sparsity", "0.9", "--vector-width", "4",
                            "--seed", "7", "--out", mtx_});
    ASSERT_EQ(r.code, 0) << r.err;
  }
  void TearDown() override {
    std::remove(mtx_.c_str());
    std::remove(jsf_.c_str());
  }
  std::string mtx_, jsf_;
};

TEST(CliArgs, ParsesPositionalAndFlags) {
  const Args args(std::vector<std::string>{"run", "file.mtx", "--n", "64",
                                           "--verify", "--kernel", "jigsaw"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"run", "file.mtx"}));
  EXPECT_EQ(args.value_size("n", 0), 64u);
  EXPECT_TRUE(args.has_flag("verify"));
  EXPECT_EQ(args.value("kernel"), "jigsaw");
  EXPECT_EQ(args.value("missing", "dflt"), "dflt");
  EXPECT_EQ(args.value_double("missing", 2.5), 2.5);
}

TEST(CliArgs, RejectsNonNumericValues) {
  const Args args(std::vector<std::string>{"x", "--n", "abc"});
  EXPECT_THROW(args.value_size("n", 0), Error);
  EXPECT_THROW(args.value_double("n", 0), Error);
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const auto r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run_cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const std::string out = test_path(".mtx");
  const auto r = run_cli({"generate", "--rows", "8", "--cols", "8",
                          "--out", out, "--bogus", "1"});
  std::remove(out.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(Cli, GenerateRequiresShape) {
  const std::string out = test_path(".mtx");
  const auto r = run_cli({"generate", "--out", out});
  std::remove(out.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--rows"), std::string::npos);
}

TEST_F(CliFiles, InfoReportsStructure) {
  const auto r = run_cli({"info", mtx_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("64 x 128"), std::string::npos);
  EXPECT_NE(r.out.find("native 2:4"), std::string::npos);
  EXPECT_NE(r.out.find("reorder BT=16"), std::string::npos);
  EXPECT_NE(r.out.find("reorder BT=64"), std::string::npos);
}

TEST_F(CliFiles, PlanWritesLoadableFormat) {
  const auto r = run_cli({"plan", mtx_, "--out", jsf_, "--block-tile", "32"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("BLOCK_TILE 32"), std::string::npos);
  std::ifstream probe(jsf_, std::ios::binary);
  EXPECT_TRUE(probe.good());

  const auto run = run_cli({"run", jsf_, "--n", "64"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("jigsaw_v4_bt32"), std::string::npos);
}

TEST_F(CliFiles, RunEveryKernelVerifies) {
  for (const std::string kernel : {"jigsaw", "hybrid", "cublas", "clasp",
                                   "magicube", "sputnik", "sparta"}) {
    const auto r = run_cli(
        {"run", mtx_, "--kernel", kernel, "--n", "16", "--verify"});
    EXPECT_EQ(r.code, 0) << kernel << ": " << r.err;
    EXPECT_NE(r.out.find("OK"), std::string::npos) << kernel;
  }
}

TEST_F(CliFiles, RunUnknownKernelFails) {
  const auto r = run_cli({"run", mtx_, "--kernel", "warpspeed"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown kernel"), std::string::npos);
}

TEST_F(CliFiles, BenchPrintsAllKernels) {
  const auto r = run_cli({"bench", mtx_, "--n", "64"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const std::string name :
       {"cuBLAS", "CLASP", "Magicube", "Sputnik", "SparTA", "Jigsaw"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, ServeWithStreamingUpdatesVerifiesMutatedMatrix) {
  // 12 requests with an update every 4: two deltas stream through
  // Engine::update mid-serve, and the final verification runs against the
  // mutated operand — so a stale lineage head or a missed mirror write
  // both fail the command.
  const auto r = run_cli({"serve", "--rows", "64", "--cols", "128",
                          "--requests", "12", "--update-every", "4",
                          "--threads", "2", "--n", "8", "--seed", "3"});
  ASSERT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("updates:"), std::string::npos);
  EXPECT_NE(r.out.find("generation 2"), std::string::npos);
  EXPECT_NE(r.out.find("verification:     OK"), std::string::npos);
}

TEST(Cli, RunMissingFileFails) {
  const auto r = run_cli({"run", "/tmp/jigsaw_no_such.mtx"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace jigsaw::cli
