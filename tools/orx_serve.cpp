// orx_serve: the ORXN network front end. Generates a deterministic DBLP
// dataset, stands up one serve::SearchService behind a net::Server, and
// runs until SIGTERM/SIGINT, then drains gracefully (stops accepting,
// answers in-flight frames, flushes outbound buffers) before exiting.
//
//   orx_serve --port 7411 --scale 0.05 --workers 2
//
// With --port 0 the kernel picks an ephemeral port; the chosen port is
// printed on the "listening" line, which scripts (the CI net-smoke job)
// parse.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"
#include "dataset_spec.h"
#include "mutate/delta_log.h"
#include "mutate/epoch.h"
#include "mutate/snapshot_builder.h"
#include "net/net_util.h"
#include "net/serve_handler.h"
#include "net/server.h"
#include "serve/search_service.h"

namespace {

using namespace orx;

struct ServeFlags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string dataset;     // ORXD2 container; empty = generate (--scale)
  std::string rank_cache;  // optional ORXC2 alongside --dataset
  double scale = 0.05;
  size_t workers = 2;
  size_t threads = 0;        // SearchService pool; 0 = hardware threads
  size_t max_pending = 64;   // admission bound
  size_t cache_entries = 512;
  double idle_timeout = 300.0;
  double drain_timeout = 5.0;
  bool mutate = false;         // enable the write path (kMutate op)
  size_t log_capacity = 1024;  // delta-log bound before kUnavailable
  size_t max_live_epochs = 8;  // publish backpressure bound
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--scale S] [--workers N]\n"
      "          [--dataset PATH.orxd2] [--rank-cache PATH.orxc2]\n"
      "          [--threads N] [--max-pending N] [--cache-entries N]\n"
      "          [--idle-timeout SEC] [--drain-timeout SEC]\n"
      "          [--mutate] [--log-capacity N] [--max-live-epochs N]\n"
      "Serves the ORXN protocol (search/explain/reformulate/validate/\n"
      "metrics/ping) over a generated DBLP dataset, or — with --dataset —\n"
      "over an ORXD2 container attached zero-copy via mmap (optionally\n"
      "with a precomputed ORXC2 rank cache; see `orx_cli pack`). --port 0\n"
      "picks an ephemeral port (printed on the 'listening' line).\n"
      "--mutate enables the write path: kMutate frames append to a delta\n"
      "log consumed by a background snapshot builder (without it the\n"
      "server is read-only); it requires a generated dataset, not\n"
      "--dataset. Runs until SIGTERM/SIGINT, then drains.\n",
      argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, ServeFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = value())) {
      flags->host = v;
    } else if (arg == "--port" && (v = value())) {
      flags->port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--scale" && (v = value())) {
      flags->scale = std::atof(v);
    } else if (arg == "--dataset" && (v = value())) {
      flags->dataset = v;
    } else if (arg == "--rank-cache" && (v = value())) {
      flags->rank_cache = v;
    } else if (arg == "--workers" && (v = value())) {
      flags->workers = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--threads" && (v = value())) {
      flags->threads = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--max-pending" && (v = value())) {
      flags->max_pending = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--cache-entries" && (v = value())) {
      flags->cache_entries = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--idle-timeout" && (v = value())) {
      flags->idle_timeout = std::atof(v);
    } else if (arg == "--drain-timeout" && (v = value())) {
      flags->drain_timeout = std::atof(v);
    } else if (arg == "--mutate") {
      flags->mutate = true;
    } else if (arg == "--log-capacity" && (v = value())) {
      flags->log_capacity = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--max-live-epochs" && (v = value())) {
      flags->max_live_epochs = static_cast<size_t>(std::atoi(v));
    } else {
      std::fprintf(stderr, "unknown or valueless flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->mutate && !flags->dataset.empty()) {
    std::fprintf(stderr,
                 "--mutate needs the generated dataset (the write path "
                 "rebuilds from the owning Dataset); drop --dataset\n");
    return false;
  }
  if (!flags->rank_cache.empty() && flags->dataset.empty()) {
    std::fprintf(stderr, "--rank-cache only applies with --dataset\n");
    return false;
  }
  return flags->scale > 0.0 && flags->workers > 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);

  // Socket/signal hygiene before any thread exists: SIGPIPE ignored
  // process-wide, and the termination signals blocked in every thread so
  // only main's sigwait() sees them (worker loops inherit the mask).
  net::IgnoreSigpipe();
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  tools::ServingDataset dataset;
  if (!flags.dataset.empty()) {
    std::printf("orx_serve: attaching %s...\n", flags.dataset.c_str());
    std::fflush(stdout);
    Timer attach_timer;
    auto attached = tools::BuildServingDatasetFromContainer(
        flags.dataset, flags.rank_cache);
    if (!attached.ok()) {
      std::fprintf(stderr, "orx_serve: %s\n",
                   attached.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(*attached);
    std::printf("orx_serve: snapshot attached in %.1fms (%s%s)\n",
                attach_timer.ElapsedSeconds() * 1e3,
                dataset.description.c_str(),
                flags.rank_cache.empty() ? "" : ", rank cache on");
  } else {
    std::printf("orx_serve: generating dataset (scale=%.3f)...\n",
                flags.scale);
    std::fflush(stdout);
    Timer build_timer;
    dataset = tools::BuildServingDataset(flags.scale);
    std::printf("orx_serve: dataset ready in %.2fs (%s)\n",
                build_timer.ElapsedSeconds(), dataset.description.c_str());
  }

  serve::SearchService::Options service_options;
  service_options.num_threads = flags.threads;
  service_options.max_pending = flags.max_pending;
  service_options.result_cache_entries = flags.cache_entries;
  serve::SearchService service(dataset.snapshot, service_options);
  std::printf(
      "orx_serve: service threads=%zu max_pending=%zu cache_entries=%zu "
      "cache_versions=%zu score_budget_mib=%zu\n",
      service.num_threads(), service_options.max_pending,
      service_options.result_cache_entries,
      service_options.result_cache_versions,
      serve::SearchService::kScoreCacheBytes >> 20);
  net::ServeHandler handler(&service);

  // Write path: the delta log feeds a background snapshot builder that
  // publishes through the service's hot-swap under epoch accounting. The
  // dblp owner (and with it the schema) outlives everything below.
  std::unique_ptr<mutate::DeltaLog> delta_log;
  std::unique_ptr<mutate::EpochManager> epochs;
  std::unique_ptr<mutate::SnapshotBuilder> builder;
  if (flags.mutate) {
    mutate::DeltaLog::Options log_options;
    log_options.capacity = flags.log_capacity;
    delta_log = std::make_unique<mutate::DeltaLog>(
        dataset.dblp->dataset.schema(), log_options);
    epochs = std::make_unique<mutate::EpochManager>();
    mutate::SnapshotBuilder::Options builder_options;
    builder_options.max_live_epochs = flags.max_live_epochs;
    builder = std::make_unique<mutate::SnapshotBuilder>(
        &service, delta_log.get(), epochs.get(), dataset.snapshot,
        builder_options);
    builder->Start();
    net::ServeHandler::MutationHooks hooks;
    hooks.log = delta_log.get();
    hooks.epochs = epochs.get();
    hooks.builder = builder.get();
    handler.set_mutation_hooks(hooks);
    std::printf("orx_serve: write path on (log capacity=%zu, "
                "max live epochs=%zu)\n",
                flags.log_capacity, flags.max_live_epochs);
  }

  net::ServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = flags.port;
  server_options.num_workers = flags.workers;
  server_options.idle_timeout_seconds = flags.idle_timeout;
  server_options.drain_timeout_seconds = flags.drain_timeout;
  net::Server server(server_options,
                     [&handler](net::Frame frame, net::ResponderPtr respond) {
                       handler.Handle(std::move(frame), std::move(respond));
                     });
  handler.set_server_stats([&server] { return server.stats(); });

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "orx_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("orx_serve listening on %s:%u\n", flags.host.c_str(),
              server.port());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&mask, &signal_number);
  std::printf("orx_serve: signal %d (%s), draining...\n", signal_number,
              strsignal(signal_number));
  std::fflush(stdout);
  server.Shutdown();
  if (builder != nullptr) {
    // The server answered its last frame; drain the log so every
    // acknowledged batch reaches a published snapshot before exit.
    builder->Stop();
    const mutate::SnapshotBuilder::Stats b = builder->stats();
    const mutate::DeltaLog::Stats l = delta_log->stats();
    std::printf(
        "orx_serve: write path drained. batches applied=%llu rejected=%llu "
        "mutations=%llu publications=%llu corpus_rebuilds=%llu | rank terms "
        "reused=%llu refreshed=%llu full_rebuilds=%llu | log appended=%llu "
        "rejected=%llu | epochs live=%llu\n",
        static_cast<unsigned long long>(b.batches_applied),
        static_cast<unsigned long long>(b.batches_rejected),
        static_cast<unsigned long long>(b.mutations_applied),
        static_cast<unsigned long long>(b.publications),
        static_cast<unsigned long long>(b.corpus_rebuilds),
        static_cast<unsigned long long>(b.terms_reused),
        static_cast<unsigned long long>(b.terms_refreshed),
        static_cast<unsigned long long>(b.cache_full_rebuilds),
        static_cast<unsigned long long>(l.appended),
        static_cast<unsigned long long>(l.rejected),
        static_cast<unsigned long long>(epochs->live()));
  }

  const net::ServerStats stats = server.stats();
  const serve::ServeMetrics metrics = service.Snapshot();
  std::printf(
      "orx_serve: drained. connections accepted=%llu closed=%llu | frames "
      "received=%llu sent=%llu errors=%llu unanswered=%llu | decode=%llu "
      "backpressure=%llu idle=%llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.closed),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.frames_sent),
      static_cast<unsigned long long>(stats.error_frames_sent),
      static_cast<unsigned long long>(stats.unanswered_frames),
      static_cast<unsigned long long>(stats.decode_errors),
      static_cast<unsigned long long>(stats.backpressure_closes),
      static_cast<unsigned long long>(stats.idle_closes));
  std::printf(
      "orx_serve: service submitted=%llu completed=%llu rejected=%llu "
      "hits=%llu coalesced=%llu executed=%llu p50=%.2fms p99=%.2fms\n",
      static_cast<unsigned long long>(metrics.submitted),
      static_cast<unsigned long long>(metrics.completed),
      static_cast<unsigned long long>(metrics.rejected),
      static_cast<unsigned long long>(metrics.cache_hits),
      static_cast<unsigned long long>(metrics.coalesced),
      static_cast<unsigned long long>(metrics.executed),
      metrics.latency_p50 * 1e3, metrics.latency_p99 * 1e3);
  std::printf(
      "orx_serve: tiers exact=%llu cached=%llu | "
      "exact p50=%.2fms cached p50=%.2fms\n",
      static_cast<unsigned long long>(metrics.tier_exact),
      static_cast<unsigned long long>(metrics.tier_cached),
      metrics.tier_exact_p50 * 1e3, metrics.tier_cached_p50 * 1e3);
  const net::ExplainMemo::Stats memo = handler.explain_memo_stats();
  std::printf("orx_serve: explain_memo hits=%llu misses=%llu\n",
              static_cast<unsigned long long>(memo.hits),
              static_cast<unsigned long long>(memo.misses));
  return 0;
}
