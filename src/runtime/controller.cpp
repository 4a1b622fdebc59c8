#include "runtime/controller.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

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

/// Runs one job per switch, on a thread pool when more than one thread is
/// configured. Pool jobs must not throw, so every job's exception is caught;
/// once all jobs have finished, the lowest-indexed failure is rethrown (a
/// std::exception as a std::runtime_error naming its switch).
class SwitchFanOut {
 public:
  SwitchFanOut(size_t threads, size_t n) : n_(n) {
    if (threads > 1 && n > 1) pool_.emplace(std::min(threads, n));
  }

  void each(const std::function<void(size_t)>& job) {
    std::vector<std::exception_ptr> errors(n_);
    auto guarded = [&](size_t i) {
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };
    if (pool_) {
      for (size_t i = 0; i < n_; ++i) pool_->run([&guarded, i] { guarded(i); });
      pool_->wait_idle();
    } else {
      for (size_t i = 0; i < n_; ++i) guarded(i);
    }
    for (size_t i = 0; i < n_; ++i) {
      if (!errors[i]) continue;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::exception& e) {
        throw std::runtime_error("runtime session " + std::to_string(i) +
                                 ": " + e.what());
      }
    }
  }

 private:
  size_t n_;
  std::optional<util::ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<SwitchSession> Controller::make_session(const SwitchWorkload& w,
                                                        size_t index) const {
  SessionConfig sc;
  sc.knobs = cfg_.knobs;
  // Independent per-session stream: the fault behaviour of switch i never
  // depends on how many switches run or on scheduling.
  sc.seed = util::hash_pair(cfg_.fault_seed, index + 1);
  const size_t expected_n = w.expected.size();
  sc.tcam_capacity = cfg_.tcam_capacity != 0 ? cfg_.tcam_capacity
                                             : expected_n + expected_n / 8 + 128;
  return std::make_unique<SwitchSession>(sc, *w.log);
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
  SwitchFanOut(cfg_.n_threads, n).each([&](size_t i) {
    results[i] = make_session(fleet[i], i)->run(fleet[i].expected);
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

  SwitchFanOut fan_out(cfg_.n_threads, n);
  std::vector<std::unique_ptr<SwitchSession>> sessions(n);
  fan_out.each([&](size_t i) {
    sessions[i] = make_session(fleet[i], i);
    sessions[i]->set_send_limit(0);  // nothing leaves before the first gate
    sessions[i]->start();
  });
  std::vector<const SwitchAgent*> agents(n);
  for (size_t i = 0; i < n; ++i) agents[i] = &sessions[i]->agent();

  std::vector<char> committed(n, 1);
  bool all_committed = true;
  for (size_t epoch = 1; epoch <= epochs && all_committed; ++epoch) {
    fan_out.each([&](size_t i) {
      sessions[i]->set_send_limit(epoch);
      committed[i] = sessions[i]->run_until_committed(epoch) ? 1 : 0;
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
  fan_out.each([&](size_t i) {
    results[i] = sessions[i]->finalize(fleet[i].expected);
  });
  return merge_session_stats(std::move(results));
}

}  // namespace ruletris::runtime
