#include "runtime/controller.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "proto/codec.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace ruletris::runtime {

std::shared_ptr<const EncodedLog> encode_log(
    const std::vector<proto::MessageBatch>& epoch_batches) {
  auto log = std::make_shared<EncodedLog>();
  log->reserve(epoch_batches.size());
  for (const proto::MessageBatch& batch : epoch_batches) {
    EncodedEpoch epoch;
    epoch.wire = std::make_shared<const proto::Bytes>(proto::encode_batch(batch));
    epoch.messages = batch.size();
    log->push_back(std::move(epoch));
  }
  return log;
}

RuntimeReport merge_session_stats(std::vector<SessionStats> results) {
  RuntimeReport report;
  report.sessions = std::move(results);
  for (const SessionStats& s : report.sessions) {
    report += s;
    report.epochs = std::max(report.epochs, s.epochs);
    report.makespan_ms = std::max(report.makespan_ms, s.makespan_ms);
    report.all_converged = report.all_converged && s.converged;
    report.all_completed = report.all_completed && s.completed;
  }
  return report;
}

namespace {

/// One claimable unit of the sweep: at most one worker runs it at a time.
struct Claim {
  std::atomic<bool> busy{false};
  std::atomic<bool> done{false};
  std::exception_ptr error;  // written under the claim, read after the sweep
};

}  // namespace

size_t Controller::sweep(size_t n_sessions, const Job& session,
                         size_t n_shards, const Job& shard) const {
  std::vector<Claim> claims(n_sessions + n_shards);  // sessions, then shards
  std::atomic<size_t> live{n_sessions};
  std::atomic<bool> failed{false};
  std::atomic<size_t> steals{0};
  const size_t workers = std::min(std::max<size_t>(cfg_.n_threads, 1),
                                  std::max<size_t>(claims.size(), 1));

  // Claims unit u for worker w and runs one step of it; true on progress.
  const auto visit = [&](size_t u, size_t w) {
    Claim& c = claims[u];
    bool free = false;
    if (c.done.load(std::memory_order_acquire) ||
        !c.busy.compare_exchange_strong(free, true, std::memory_order_acquire)) {
      return false;
    }
    SweepStep step = SweepStep::kIdle;
    if (!c.done.load(std::memory_order_relaxed)) {
      const bool is_shard = u >= n_sessions;
      const size_t i = is_shard ? u - n_sessions : u;
      if (is_shard && i % workers != w) {
        steals.fetch_add(1, std::memory_order_relaxed);
      }
      try {
        step = (is_shard ? shard : session)(i);
      } catch (...) {  // pool jobs must not throw
        c.error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        step = SweepStep::kDone;
      }
      if (step == SweepStep::kDone) {
        c.done.store(true, std::memory_order_release);
        if (!is_shard) live.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    c.busy.store(false, std::memory_order_release);
    return step != SweepStep::kIdle;
  };
  const auto worker = [&](size_t w) {
    const size_t offset = (w * n_sessions) / workers;
    while (live.load(std::memory_order_acquire) > 0 &&
           !failed.load(std::memory_order_relaxed)) {
      bool progress = false;
      for (size_t k = 0; k < n_sessions; ++k) {
        progress |= visit((offset + k) % n_sessions, w);
      }
      for (size_t k = 0; k < n_shards; ++k) {
        progress |= visit(n_sessions + (w + k) % n_shards, w);
      }
      if (!progress) std::this_thread::yield();
    }
  };

  if (workers == 1) {
    worker(0);
  } else {
    util::ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) pool.run([&worker, w] { worker(w); });
    pool.wait_idle();
  }
  for (size_t u = 0; u < claims.size(); ++u) {
    if (!claims[u].error) continue;
    std::string what = "non-standard exception";
    try {
      std::rethrow_exception(claims[u].error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    throw std::runtime_error(
        u < n_sessions ? "fleet switch " + std::to_string(u) + ": " + what
                       : "fleet shard " + std::to_string(u - n_sessions) +
                             ": " + what);
  }
  return steals.load(std::memory_order_relaxed);
}

std::unique_ptr<SwitchSession> Controller::make_session(
    size_t index, const EpochSource& source, size_t expected_rules,
    std::span<const AgentBlackout> blackouts,
    std::function<bool(uint64_t)> on_readmit) const {
  SessionConfig sc;
  sc.knobs = cfg_.knobs;
  sc.seed = util::hash_pair(cfg_.fault_seed, index + 1);
  sc.tcam_capacity = cfg_.tcam_capacity != 0
                         ? cfg_.tcam_capacity
                         : expected_rules + expected_rules / 8 + 128;
  for (const AgentBlackout& b : blackouts) {
    if (b.sw == index) sc.blackouts.push_back(b.window);
  }
  sc.on_readmit = std::move(on_readmit);
  return std::make_unique<SwitchSession>(sc, source);
}

RuntimeReport Controller::run(const std::vector<proto::MessageBatch>& epoch_batches,
                              const std::vector<flowspace::Rule>& expected) {
  // Encode each epoch once; every session, retransmit and latency charge
  // reuses the same immutable bytes.
  const std::shared_ptr<const EncodedLog> log = encode_log(epoch_batches);
  const size_t n = std::max<size_t>(cfg_.n_switches, 1);
  std::vector<SwitchWorkload> fleet(n);
  for (SwitchWorkload& w : fleet) {
    w.log = log;
    w.expected = expected;
  }
  return run_fleet(fleet);
}

RuntimeReport Controller::run_fleet(const std::vector<SwitchWorkload>& fleet) {
  const size_t n = fleet.size();
  std::vector<SessionStats> results(n);
  sweep(n, [&](size_t i) {
    const VectorEpochSource source(*fleet[i].log);
    results[i] = make_session(i, source, fleet[i].expected.size())
                     ->run(fleet[i].expected);
    return SweepStep::kDone;
  });
  return merge_session_stats(std::move(results));
}

RuntimeReport Controller::run_rounds(const std::vector<SwitchWorkload>& fleet,
                                     const RoundObserver& between_rounds) {
  const size_t n = fleet.size();
  const size_t epochs = n > 0 ? fleet.front().log->size() : 0;
  for (const SwitchWorkload& w : fleet) {
    if (w.log->size() != epochs) {
      // Round r must be the same epoch number on every switch, or the gate
      // would align different rounds behind one barrier.
      throw std::invalid_argument("fleet: switch scripts differ in length");
    }
  }

  std::vector<VectorEpochSource> sources;
  sources.reserve(n);
  for (const SwitchWorkload& w : fleet) sources.emplace_back(*w.log);
  std::vector<std::unique_ptr<SwitchSession>> sessions(n);
  sweep(n, [&](size_t i) {
    sessions[i] = make_session(i, sources[i], fleet[i].expected.size());
    sessions[i]->set_send_limit(0);  // nothing leaves before the first gate
    sessions[i]->start();
    return SweepStep::kDone;
  });
  std::vector<const SwitchAgent*> agents(n);
  for (size_t i = 0; i < n; ++i) agents[i] = &sessions[i]->agent();

  std::vector<char> committed(n, 1);
  bool all_committed = true;
  for (size_t epoch = 1; epoch <= epochs && all_committed; ++epoch) {
    sweep(n, [&](size_t i) {
      sessions[i]->set_send_limit(epoch);
      committed[i] = sessions[i]->run_until_committed(epoch) ? 1 : 0;
      return SweepStep::kDone;
    });

    // Fleet barrier: the round ends when the slowest switch commits; every
    // clock parks there so the next round's sends share a common origin.
    double barrier = 0.0;
    for (const auto& session : sessions) {
      barrier = std::max(barrier, session->now_ms());
    }
    for (auto& session : sessions) session->advance_clock(barrier);

    all_committed = std::all_of(committed.begin(), committed.end(),
                                [](char c) { return c != 0; });
    if (all_committed && between_rounds) between_rounds(epoch, barrier, agents);
  }

  std::vector<SessionStats> results(n);
  sweep(n, [&](size_t i) {
    results[i] = sessions[i]->finalize(fleet[i].expected);
    return SweepStep::kDone;
  });
  return merge_session_stats(std::move(results));
}

}  // namespace ruletris::runtime
