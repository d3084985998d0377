#include "fabric/service.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"
#include "fabric/wire.hpp"

namespace pfi::fabric {

namespace {

struct Job {
  std::string id;
  int client_fd = -1;  // -1 once the client went away
  Submit submit;       // the engine batch points into submit.cells
  int engine_job = -1;
  bool finished = false;
  int done = 0, pass = 0, fail = 0, error = 0;
};

class Service {
 public:
  Service(Listener* listener, const ServiceOptions& opts, ServiceStats* stats)
      : opts_(opts), stats_(stats != nullptr ? stats : &own_stats_) {
    if (opts_.max_active < 1) opts_.max_active = 1;
    Engine::Options eopts = opts_.engine;
    eopts.accept_clients = true;
    eopts.on_client_frame = [this](int fd, const Frame& f) {
      on_client_frame(fd, f);
    };
    eopts.on_client_closed = [this](int fd) { on_client_closed(fd); };
    engine_ = std::make_unique<Engine>(listener, std::move(eopts));
  }

  int run() {
    while (!(opts_.should_stop && opts_.should_stop())) {
      engine_->step(200);
      active_.erase(std::remove_if(active_.begin(), active_.end(),
                                   [](const auto& j) { return j->finished; }),
                    active_.end());
      start_queued();
    }
    if (!active_.empty() || !queue_.empty()) {
      log("shutting down with " + std::to_string(active_.size()) +
          " active and " + std::to_string(queue_.size()) + " queued job(s)");
    }
    engine_->shutdown("daemon shutting down");
    stats_->fabric = engine_->stats;
    return 0;
  }

 private:
  void log(const std::string& msg) {
    if (opts_.engine.on_log) opts_.engine.on_log(msg);
  }

  void send_json(int fd, FrameType type, const std::string& json) {
    if (fd < 0) return;
    engine_->send_to_client(fd, encode_json_line(type, json));
  }

  /// STATUS reply: one JSON document with a fixed key set in a fixed
  /// order, so consumers can parse it without schema negotiation. The
  /// wall-clock field (workers[].last_seen_ms) is inherent to the question
  /// being asked; everything else is counters and queue state.
  [[nodiscard]] std::string status_json() const {
    campaign::json::Writer w;
    w.begin_object();
    w.key("daemon").begin_object();
    w.kv("active", static_cast<int>(active_.size()));
    w.kv("queued", static_cast<int>(queue_.size()));
    w.kv("max_active", opts_.max_active);
    w.kv("jobs_accepted", stats_->jobs_accepted);
    w.kv("jobs_completed", stats_->jobs_completed);
    w.kv("jobs_rejected", stats_->jobs_rejected);
    w.end_object();
    w.key("jobs").begin_array();
    const auto job_obj = [&w](const Job& job, const char* phase) {
      w.begin_object();
      w.kv("job", job.id);
      w.kv("spec", job.submit.name);
      w.kv("phase", phase);
      w.kv("done", job.done);
      w.kv("total", static_cast<int>(job.submit.cells.size()));
      w.kv("pass", job.pass);
      w.kv("fail", job.fail);
      w.kv("error", job.error);
      w.end_object();
    };
    for (const auto& jp : active_) job_obj(*jp, "running");
    for (const auto& jp : queue_) job_obj(*jp, "queued");
    w.end_array();
    w.key("workers").begin_array();
    for (const WorkerSnapshot& s : engine_->worker_snapshots()) {
      w.begin_object();
      w.kv("id", s.id);
      w.kv("name", s.name);
      w.kv("connected", s.connected);
      w.kv("outstanding", s.outstanding);
      w.kv("leases", s.leases);
      w.kv("reattaches", s.reattaches);
      w.kv("last_seen_ms", static_cast<std::int64_t>(s.last_seen_ms));
      w.end_object();
    }
    w.end_array();
    w.key("fabric").value_raw(engine_->stats.to_json());
    w.key("fleet_metrics").begin_object();
    for (const auto& m :
         merge_fleet(engine_->worker_stats(), opts_.engine.obs)) {
      w.kv(m.name, m.value);
    }
    w.end_object();
    w.end_object();
    return w.str();
  }

  void on_client_frame(int fd, const Frame& f) {
    if (f.type == FrameType::kStatus) {
      send_json(fd, FrameType::kStatus, status_json());
      return;
    }
    if (f.type != FrameType::kSubmit) return;  // nothing else is ours
    auto job = std::make_unique<Job>();
    job->id = "job-" + std::to_string(++job_seq_);
    job->client_fd = fd;
    if (!decode_submit(f.payload, &job->submit)) {
      ++stats_->jobs_rejected;
      log(job->id + " rejected: malformed SUBMIT payload");
      campaign::json::Writer w;
      w.begin_object();
      w.kv("job", job->id);
      w.kv("status", "error");
      w.kv("error", "malformed SUBMIT payload");
      w.end_object();
      send_json(fd, FrameType::kDone, w.str());
      return;
    }
    ++stats_->jobs_accepted;
    log(job->id + " queued: " + job->submit.name + ", " +
        std::to_string(job->submit.cells.size()) + " cell(s)" +
        (job->submit.max_workers > 0
             ? ", max_workers " + std::to_string(job->submit.max_workers)
             : ""));
    queue_.push_back(std::move(job));
  }

  void on_client_closed(int fd) {
    // Nobody is waiting for the rest: cancel the still-queued cells (the
    // ones a worker holds finish unseen) and drop never-started jobs.
    for (auto& jp : active_) {
      if (jp->client_fd != fd) continue;
      jp->client_fd = -1;
      engine_->cancel_queued(jp->engine_job);
      log(jp->id + " client gone: cancelling queued cells");
    }
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->client_fd == fd) {
        log((*it)->id + " dropped: client gone before start");
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void start_queued() {
    while (static_cast<int>(active_.size()) < opts_.max_active &&
           !queue_.empty()) {
      active_.push_back(std::move(queue_.front()));
      queue_.pop_front();
      Job* job = active_.back().get();
      stats_->peak_active =
          std::max(stats_->peak_active, static_cast<int>(active_.size()));
      log(job->id + " started (" + std::to_string(active_.size()) +
          " active)");
      job->engine_job = engine_->add_batch(
          &job->submit.cells,
          [this, job](int slot, campaign::RunResult r) {
            ++job->done;
            ++(r.errored() ? job->error : r.pass ? job->pass : job->fail);
            if (job->client_fd < 0) return;
            engine_->send_to_client(
                job->client_fd,
                encode_frame(FrameType::kResult,
                             encode_result(job->engine_job, slot, 0, r)));
          },
          [this, job] {
            campaign::json::Writer w;
            w.begin_object();
            w.kv("job", job->id);
            w.kv("status", "ok");
            write_fleet_sections(&w, engine_->stats, engine_->worker_stats(),
                                 opts_.engine.obs);
            w.end_object();
            send_json(job->client_fd, FrameType::kDone, w.str());
            log(job->id + " finished");
            ++stats_->jobs_completed;
            job->finished = true;
          },
          job->submit.max_workers);
    }
  }

  ServiceOptions opts_;
  ServiceStats own_stats_;  // backing store when the caller passed none
  ServiceStats* stats_;
  std::unique_ptr<Engine> engine_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::vector<std::unique_ptr<Job>> active_;
  int job_seq_ = 0;
};

}  // namespace

int run_service(Listener* listener, const ServiceOptions& opts,
                ServiceStats* stats) {
  Service service(listener, opts, stats);
  return service.run();
}

}  // namespace pfi::fabric
