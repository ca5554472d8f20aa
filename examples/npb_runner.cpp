// npb_runner: command-line front end for the NPB kernels — run any kernel
// at any class on either simulated platform with either page size, print
// verification, simulated time and the full OProfile-style event report.
//
//   $ ./npb_runner CG --klass=R --platform=opteron --threads=4 --pages=2m
//   $ ./npb_runner all --klass=S        # smoke-run every kernel
#include <iostream>

#include "bench/cli.hpp"
#include "npb/npb.hpp"
#include "support/format.hpp"
#include "support/options.hpp"

using namespace lpomp;

namespace {

int run_one(npb::Kernel kernel, const Options& opts) {
  core::RuntimeConfig cfg;
  cfg.num_threads = static_cast<unsigned>(opts.get_int("threads", 4));
  cfg.page_kind =
      opts.get("pages", "4k") == "2m" ? PageKind::large2m : PageKind::small4k;
  cfg.use_msg_channel_barrier = opts.get_flag("msg-barrier");
  cfg.sim = core::SimConfig{opts.get("platform", "opteron") == "xeon"
                                ? sim::ProcessorSpec::xeon_ht()
                                : sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0x5eedULL};

  const npb::Klass klass = bench::klass_by_name(opts.get("klass", "S"));

  std::cout << "Running " << npb::kernel_name(kernel) << " class "
            << npb::klass_name(klass) << " on " << cfg.sim->spec.name << ", "
            << cfg.num_threads << " thread(s), "
            << page_kind_name(cfg.page_kind) << " pages...\n";

  const npb::NpbResult r = npb::run_kernel(kernel, klass, cfg);
  std::cout << "  verification: " << (r.verified ? "PASSED" : "FAILED")
            << " (" << r.verification_detail << ")\n"
            << "  checksum:     " << r.checksum << "\n"
            << "  time:         " << format_seconds(r.simulated_seconds)
            << " simulated seconds\n\n";
  if (opts.get_flag("profile", true)) r.profile.print(std::cout);
  return r.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_flags(
      argc, argv,
      {"klass", "threads", "pages", "platform", "msg-barrier", "profile"});
  std::string which = "all";
  if (!opts.positional().empty()) which = opts.positional().front();

  if (which == "all") {
    int rc = 0;
    for (npb::Kernel k : npb::all_kernels()) rc |= run_one(k, opts);
    return rc;
  }
  for (npb::Kernel k : npb::all_kernels()) {
    if (which == npb::kernel_name(k)) return run_one(k, opts);
  }
  std::cerr << "unknown kernel '" << which << "' (expected";
  for (npb::Kernel k : npb::all_kernels()) {
    std::cerr << " " << npb::kernel_name(k) << ",";
  }
  std::cerr << " or all)\n";
  return 2;
}
