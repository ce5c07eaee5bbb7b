// BusDaemon: the long-running campaign server of psc::bus.
//
// One accept-loop thread plus one thread per client connection speak the
// framed protocol of bus/protocol.h over a Unix-domain socket. Submitted
// campaigns (dataset CPA/TVLA jobs and scenario jobs alike) become
// job-table entries executed shard-parallel: each job gets a dedicated
// driver thread (drivers mostly block, so they must not occupy pool
// slots) that fans the job's shard units out on the process-wide
// core::WorkerPool (core::run_shard_units) and merges them in shard
// order. All jobs' units interleave in the pool's FIFO queue, and each
// driver re-reads its fair in-flight cap (JobTable::shard_budget — the
// shard parallelism budget split evenly over active jobs) before issuing
// a unit, so one huge job shrinks its window as small jobs arrive instead
// of starving them; every job's result stays a pure function of
// (dataset, spec) regardless. Datasets resolve through the
// DatasetRegistry: one shared mmap per file, any number of jobs on top,
// with a shared store::ChunkCache so concurrent jobs decode each
// compressed chunk once.
//
// Shutdown is graceful by construction: a stop request (stop(), the
// SHUTDOWN message, or SIGINT/SIGTERM via install_signal_handlers) first
// flips `stopping_` — new submits are rejected with shutting_down —
// then drains the job table, and only then tears down sockets and joins
// threads. A client watching a job across shutdown sees its final
// JOB_DONE before the connection drops. All teardown runs on a
// dedicated stopper thread, so stop may be requested from a signal
// handler (async-signal-safe self-pipe write), a connection thread
// (SHUTDOWN message) or any caller without self-join deadlocks.
//
// A misbehaving client costs exactly its own connection: frame-level
// garbage (bad magic/version/CRC, oversize, truncation) raises
// ProtocolError in that connection's thread, which answers with one
// best-effort ERROR frame and closes — the daemon, other sessions, and
// any jobs the client had in flight are untouched (quota slots release
// when those jobs finish).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bus/dataset_registry.h"
#include "bus/framing.h"
#include "bus/job_table.h"
#include "util/env.h"

namespace psc::store {
class ChunkCache;
}

namespace psc::bus {

struct BusDaemonConfig {
  std::string socket_path;
  // Max queued+running jobs per client connection.
  std::size_t per_session_quota = 4;
  // Worker-pool threads reserved at start() so that shard units from
  // many concurrent jobs actually run in parallel
  // (core::WorkerPool::reserve).
  std::size_t pool_reserve = 4;
  // Total shard units allowed in flight across all jobs, split fairly
  // over active jobs (see JobTable::shard_budget). 0 = pool_reserve.
  // 1 pins every job to sequential shard execution.
  std::size_t shard_parallelism = 0;
  // Decoded-chunk cache budget in MiB, shared by all jobs; 0 disables
  // the cache (every shard reader then decodes privately).
  std::size_t chunk_cache_mb = util::env_size("PSC_BUS_CHUNK_CACHE_MB", 256);
  // Datasets registered before the socket opens: (name, path).
  std::vector<std::pair<std::string, std::string>> datasets;
};

class BusDaemon {
 public:
  explicit BusDaemon(BusDaemonConfig config);
  ~BusDaemon();  // stops gracefully if still running
  BusDaemon(const BusDaemon&) = delete;
  BusDaemon& operator=(const BusDaemon&) = delete;

  // Opens registered datasets, binds the socket and starts serving.
  // Throws (and leaves nothing running) when a dataset or the socket
  // path is unusable.
  void start();

  // Requests a graceful stop and blocks until teardown finished.
  // Idempotent; callable from any thread.
  void stop();

  // Blocks until the daemon stopped (by stop(), SHUTDOWN or a signal).
  void wait();

  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }
  DatasetRegistry& registry() noexcept { return registry_; }
  JobTable& jobs() noexcept { return *jobs_; }

  // Routes SIGINT/SIGTERM to daemon.stop() via an async-signal-safe
  // self-pipe write. One daemon per process can own the handlers.
  static void install_signal_handlers(BusDaemon& daemon);

 private:
  void accept_loop();
  void handle_connection(Socket* socket, std::uint64_t session);
  // One request; returns false when the connection should close.
  bool dispatch(Socket& socket, std::uint64_t session, MsgType type,
                const std::vector<std::byte>& payload);
  void submit_job(Socket& socket, std::uint64_t session, JobKind kind,
                  std::string dataset, const CpaJobSpec& cpa,
                  const TvlaJobSpec& tvla);
  // SUBMIT_SCENARIO: validates the name against the built-in registry
  // (unknown_scenario) and the params against its specs (bad_request)
  // before accepting — either failure is a typed ERROR frame on a
  // connection that stays open.
  void submit_scenario_job(Socket& socket, std::uint64_t session,
                           ScenarioJobSpec spec);
  // Answers a submit the job table charged as `id` (0: quota_exceeded)
  // and runs the job on its own driver thread; `mapping` is the dataset
  // of a cpa/tvla job, null for a scenario job.
  void start_job(Socket& socket, std::uint64_t id,
                 std::shared_ptr<const store::SharedMapping> mapping);
  void stream_watch(Socket& socket, std::uint64_t id);
  void send_result(Socket& socket, std::uint64_t id);
  void request_stop();  // async: nudges the stopper thread
  void stopper_loop();
  void do_stop();
  std::uint32_t shard_parallelism() const noexcept;
  void reap_drivers_locked();

  BusDaemonConfig config_;
  DatasetRegistry registry_;
  // Shared decoded-chunk cache (null when chunk_cache_mb == 0); handed
  // to every job's exec options and to the registry for drop-on-close.
  std::shared_ptr<store::ChunkCache> chunk_cache_;
  // shared_ptr: posted job closures capture the table so a job finishing
  // after teardown (never happens under the drain, but the pool contract
  // demands ownership) touches valid memory.
  std::shared_ptr<JobTable> jobs_;

  // One driver thread per submitted job (see file comment). `done` lets
  // submit_job reap finished drivers eagerly; do_stop joins the rest
  // after the job-table drain.
  struct JobDriver {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex drivers_mu_;
  std::vector<JobDriver> drivers_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::thread stopper_thread_;
  int stop_pipe_[2] = {-1, -1};  // [0] read end, [1] write end

  std::mutex conn_mu_;
  std::uint64_t next_session_ = 1;
  // Live connections by session; entries point at the owning thread's
  // stack Socket and are erased (under conn_mu_) before that Socket
  // closes, so do_stop's shutdown sweep never touches a dead fd.
  std::vector<std::pair<std::uint64_t, Socket*>> connections_;
  std::vector<std::thread> conn_threads_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;
};

}  // namespace psc::bus
