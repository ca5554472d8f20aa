// sweep_service — the persistent sweep daemon.
//
//   sweep_service [--shm=/lpomp-sweep] [--store-dir=PATH] [--workers=N]
//                 [--slots=8] [--slot-mb=1]
//
// Creates the shared-memory request ring and serves sweep_client
// submissions until SIGTERM/SIGINT: each request is decoded, run through
// one long-lived exec::Scheduler, and answered with the result JSON. With
// --store-dir= every completed RunRecord is persisted content-addressed on
// disk, so a repeated grid point — from any client, before or after a
// daemon restart — is answered from the store in microseconds instead of
// being re-simulated. Each request carries its own execution strategy
// (sweep_client --strategy=).
// Any other flag exits 2 naming it.
//
// On shutdown the daemon prints a one-line stats JSON (requests served,
// ring queue peak, store hit/miss/byte counters) and exits 0; the ring
// segment is unlinked, the store directory stays.
#include <csignal>
#include <iostream>

#include "bench/bench_common.hpp"
#include "serve/service.hpp"

using namespace lpomp;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_flags(
      argc, argv,
      {"shm", "slots", "slot-mb", "workers", "store-dir"});

  serve::SweepService::Config cfg;
  cfg.shm_name = opts.get("shm", "/lpomp-sweep");
  cfg.slots = static_cast<std::uint32_t>(opts.get_int("slots", 8));
  cfg.slot_bytes = MiB(static_cast<std::size_t>(opts.get_int("slot-mb", 1)));
  cfg.scheduler.workers = bench::workers_from(opts);
  cfg.scheduler.store_dir = opts.get("store-dir", "");

  try {
    serve::SweepService service(cfg);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);

    std::cout << "sweep_service: serving on " << service.ring().name() << " ("
              << service.ring().slots() << " slots x "
              << format_bytes(service.ring().slot_bytes()) << "), "
              << service.scheduler().workers() << " workers";
    if (const exec::DiskResultStore* store =
            service.scheduler().disk_store()) {
      std::cout << ", store " << store->root() << " (" << store->size()
                << " entries)";
    } else {
      std::cout << ", no persistent store (--store-dir= to enable)";
    }
    std::cout << std::endl;

    service.serve(g_stop);

    std::cout << service.stats_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "sweep_service: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
