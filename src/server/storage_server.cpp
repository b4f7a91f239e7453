#include "server/storage_server.hpp"

#include <algorithm>
#include <cassert>
#include <exception>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "kernels/pipeline.hpp"
#include "kernels/stream.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dosas::server {

const char* outcome_name(ActiveOutcome o) {
  switch (o) {
    case ActiveOutcome::kCompleted: return "COMPLETED";
    case ActiveOutcome::kRejected: return "REJECTED";
    case ActiveOutcome::kInterrupted: return "INTERRUPTED";
    case ActiveOutcome::kFailed: return "FAILED";
  }
  return "?";
}

StorageServer::Metrics::Metrics(const std::string& prefix)
    : normal_requests(prefix + ".normal_requests"),
      completed(prefix + ".completed"),
      demoted(prefix + ".demoted"),
      interrupted(prefix + ".interrupted"),
      checkpoint_bytes(prefix + ".checkpoint_bytes"),
      failed(prefix + ".failed"),
      coalesced(prefix + ".coalesced"),
      timed_out(prefix + ".timed_out"),
      cancelled(prefix + ".cancelled"),
      probes(prefix + ".probes"),
      interrupts_signalled(prefix + ".interrupts_signalled"),
      pool_rejections(prefix + ".pool_rejections"),
      worker_exceptions(prefix + ".worker_exceptions"),
      kernel_exceptions(prefix + ".kernel_exceptions"),
      cache_hits("arena.cache_hits"),
      cache_invalidations("arena.cache_invalidations"),
      cache_evictions("arena.cache_evictions"),
      queue_depth(prefix + ".queue_depth"),
      queue_depth_samples(prefix + ".queue_depth_samples"),
      kernel_mibps(prefix + ".kernel_mibps."),
      transport_us("stage.transport_us."),
      queue_wait_us("stage.queue_wait_us."),
      kernel_exec_us("stage.kernel_exec_us.") {}

StorageServer::StorageServer(pfs::FileSystem& fs, pfs::ServerId server_id,
                             kernels::Registry registry, ContentionEstimator::Config ce_config,
                             RateTable rates, Config config)
    : fs_(fs),
      server_id_(server_id),
      registry_(std::move(registry)),
      ce_(std::move(ce_config), std::move(rates)),
      config_(config),
      obs_name_("server" + std::to_string(server_id)),
      serve_active_span_(obs_name_ + ".serve_active"),
      evaluate_policy_span_(obs_name_ + ".evaluate_policy"),
      metrics_(obs_name_),
      pool_(config.cores, [this](std::exception_ptr) {
        // Backstop for exceptions escaping run_kernel itself (run_kernel
        // already converts kernel throws to kFailed responses): count and
        // keep the worker alive rather than letting the process die.
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        obs::count(metrics_.worker_exceptions);
      }) {
  if (config_.probe_interval > 0.0) {
    // Pre-register the prober's clock participation before spawning it so
    // a VirtualClock cannot advance (and skip the first tick's phase) in
    // the spawn window — see ClockParticipant.
    clock().add_participant();
    prober_ = std::thread([this] { probe_loop(); });
  }
}

void StorageServer::probe_loop() {
  // The probe timer is a DST participant: between ticks it sits in a
  // clock timed wait, so a VirtualClock jumps straight to the next tick.
  // The count was pre-registered by the constructor.
  ClockParticipant participant(ClockParticipant::kAdoptPreRegistered);
  std::unique_lock lock(probe_mu_);
  Seconds next = clock().now() + config_.probe_interval;
  while (true) {
    const bool stopped =
        clock().timed_wait(probe_cv_, lock, next, [&] { return probe_stop_; });
    if (stopped) return;
    next = clock().now() + config_.probe_interval;
    lock.unlock();
    probe();
    {
      std::lock_guard slock(mu_);
      ++stats_.probe_ticks;
    }
    lock.lock();
  }
}

void StorageServer::set_fault_injector(std::shared_ptr<fault::FaultInjector> fi) {
  std::lock_guard lock(mu_);
  faults_ = std::move(fi);
}

void StorageServer::obs_queue_depth_locked() {
  if (!obs::metrics_enabled()) return;
  const auto depth = static_cast<double>(entries_.size());
  metrics_.queue_depth.get().set(depth);
  metrics_.queue_depth_samples.get().observe(depth);
}

StorageServer::~StorageServer() {
  if (prober_.joinable()) {
    {
      std::lock_guard lock(probe_mu_);
      probe_stop_ = true;
    }
    clock().wake_all(probe_cv_);
    prober_.join();
  }
  // Interrupt anything still running so pool shutdown doesn't wait on long
  // kernels; then join. Workers still deliver their (interrupted)
  // completions on the way out, so no waiter callback is dropped.
  {
    std::lock_guard lock(mu_);
    for (auto& [id, entry] : entries_) {
      entry->reject_before_start = true;
      entry->interrupt.store(true);
    }
  }
  pool_.shutdown();
}

Result<BufferRef> StorageServer::serve_normal(pfs::FileHandle handle,
                                              Bytes object_offset, Bytes length) {
  {
    std::lock_guard lock(mu_);
    ++normal_inflight_;
    ++stats_.normal_requests;
  }
  obs::count(metrics_.normal_requests);
  auto data = fs_.data_server(server_id_).read_object_ref(handle, object_offset, length);
  {
    std::lock_guard lock(mu_);
    --normal_inflight_;
    if (data.is_ok()) stats_.normal_bytes_served += data.value().size();
  }
  return data;
}

Status StorageServer::serve_write(pfs::FileHandle handle, Bytes object_offset,
                                  const BufferRef& data) {
  {
    std::lock_guard lock(mu_);
    ++normal_inflight_;
    ++stats_.normal_requests;
  }
  obs::count(metrics_.normal_requests);
  // The data server's store is the write path's single copy; `data` is a
  // view of the client's buffer all the way down to here.
  Status st = fs_.data_server(server_id_).write_object(handle, object_offset, data.span());
  {
    std::lock_guard lock(mu_);
    --normal_inflight_;
    if (st.is_ok()) stats_.normal_bytes_written += data.size();
  }
  return st;
}

std::shared_ptr<StorageServer::Entry> StorageServer::find_coalesce_locked(
    const ActiveIoRequest& request) {
  if (!config_.coalesce_identical) return nullptr;
  // Resumptions carry kernel state and must run verbatim; only fresh
  // full-extent scans are safely shareable.
  if (request.is_resumption()) return nullptr;
  for (auto& [id, entry] : entries_) {
    if (entry->state == EntryState::kDone) continue;
    if (entry->reject_before_start || entry->interrupt.load()) continue;
    const auto& r = entry->request;
    if (r.is_resumption()) continue;
    if (r.handle == request.handle && r.object_offset == request.object_offset &&
        r.length == request.length && r.operation == request.operation) {
      return entry;
    }
  }
  return nullptr;
}

const StorageServer::OpInfo& StorageServer::op_info_locked(const std::string& operation) {
  if (auto it = ops_.find(operation); it != ops_.end()) return it->second;
  OpInfo info;
  info.kernel = kernels::operation_kernel(operation);
  // The CE groups by kernel name (the rate table is keyed by kernel, not by
  // the full parameterized operation string); the cost model is per-op
  // (paper §III-D). Pipelines are scheduled under their rate-table
  // bottleneck stage — the slowest stage dominates a streaming chain.
  std::string rate_key = operation;
  auto spec = kernels::OperationSpec::parse(operation);
  if (spec.is_ok()) {
    info.spec = std::move(spec).value();
    rate_key = info.spec.kernel == "pipe" ? pipeline_rate_key(info.spec) : info.spec.kernel;
    auto kernel = registry_.create(info.spec);
    if (kernel.is_ok()) {
      info.prototype = std::move(kernel).value();
    } else {
      info.status = kernel.status();
    }
  } else {
    info.status = spec.status();
  }
  auto [group, fresh] = rate_groups_.try_emplace(std::move(rate_key), 0);
  if (fresh) {
    // Ranks follow key order, so sorting by rank visits groups in key order.
    std::size_t rank = 0;
    for (auto& [key, r] : rate_groups_) r = rank++;
  }
  info.group = group;
  return ops_.emplace(operation, std::move(info)).first->second;
}

std::shared_ptr<StorageServer::Entry> StorageServer::admit(ActiveIoRequest request,
                                                           ActiveCompletion done,
                                                           ActiveTicket& ticket) {
  auto entry = std::make_shared<Entry>();
  entry->request = std::move(request);
  entry->enqueued_at = clock().now();
  const ActiveIoRequest& req = entry->request;
  std::lock_guard lock(mu_);
  ticket.waiter = next_waiter_++;
  // Coalesce onto an identical in-flight request when possible: one kernel
  // run, many waiters.
  if (auto twin = find_coalesce_locked(req)) {
    ticket.id = twin->request.id;
    ticket.coalesced = true;
    twin->waiters.push_back(Waiter{ticket.waiter, std::move(done)});
    ++stats_.active_coalesced;
    obs::count(metrics_.coalesced);
    obs::flight_record(obs::FlightEventKind::kCoalesce, req.trace.trace_id, server_id_,
                       twin->request.id, "coalesced onto in-flight twin");
    if (obs::tracing_enabled() && req.trace.valid()) {
      obs::Tracer::global().instant(obs_name_ + ".coalesce", "server", req.trace.child("coalesce"));
    }
    return nullptr;
  }
  ticket.id = req.id != 0 ? req.id : next_id_++;
  entry->request.id = ticket.id;
  entry->op = &op_info_locked(req.operation);
  entry->waiters.push_back(Waiter{ticket.waiter, std::move(done)});
  entries_.emplace(ticket.id, entry);
  obs_queue_depth_locked();
  obs::flight_record(obs::FlightEventKind::kStateTransition, req.trace.trace_id, server_id_,
                     ticket.id, "active request queued");
  if (req.submitted_at >= 0) {
    // Transport stage: client-side hand-off to server-side admission.
    obs::observe(metrics_.transport_us, entry->op->kernel,
                 (entry->enqueued_at - req.submitted_at) * 1e6, req.trace.trace_id);
  }
  return entry;
}

std::shared_ptr<fault::FaultInjector> StorageServer::faults() const {
  std::lock_guard lock(mu_);
  return faults_;
}

ActiveIoResponse StorageServer::crashed_response(pfs::ServerId server_id) {
  ActiveIoResponse resp;
  resp.outcome = ActiveOutcome::kFailed;
  resp.status = error(ErrorCode::kUnavailable,
                      "storage node " + std::to_string(server_id) +
                          ": active runtime down (injected crash)");
  return resp;
}

void StorageServer::count_outcome_locked(const ActiveIoResponse& response) {
  switch (response.outcome) {
    case ActiveOutcome::kCompleted: ++stats_.active_completed; break;
    case ActiveOutcome::kRejected: ++stats_.active_rejected; break;
    case ActiveOutcome::kInterrupted: ++stats_.active_interrupted; break;
    case ActiveOutcome::kFailed: ++stats_.active_failed; break;
  }
  if (obs::metrics_enabled()) {
    switch (response.outcome) {
      case ActiveOutcome::kCompleted: metrics_.completed.get().inc(); break;
      case ActiveOutcome::kRejected: metrics_.demoted.get().inc(); break;
      case ActiveOutcome::kInterrupted:
        metrics_.interrupted.get().inc();
        metrics_.checkpoint_bytes.get().inc(response.checkpoint.size());
        break;
      case ActiveOutcome::kFailed: metrics_.failed.get().inc(); break;
    }
  }
}

void StorageServer::complete_entry(sched::RequestId id, const std::shared_ptr<Entry>& entry,
                                   ActiveIoResponse response, Bytes processed) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second != entry) {
      // Abandoned: every waiter cancelled (or the request was superseded).
      // The late result is discarded; outcome stats were counted at cancel.
      return;
    }
    entry->state = EntryState::kDone;
    waiters.swap(entry->waiters);
    entries_.erase(it);
    stats_.active_bytes_processed += processed;
    for (std::size_t i = 0; i < waiters.size(); ++i) count_outcome_locked(response);
    obs_queue_depth_locked();
  }
  obs::flight_record(obs::FlightEventKind::kStateTransition, entry->request.trace.trace_id,
                     server_id_, id, outcome_name(response.outcome));
  // Deliver outside mu_: completions may submit follow-up work (the
  // client's cooperative resubmission path) or take unrelated locks. All
  // but the last waiter get a copy; the last takes the response by move.
  // Copying the response shares the result slab by reference — only the
  // checkpoint vector (interrupted runs) still duplicates per waiter.
  for (std::size_t i = 0; i + 1 < waiters.size(); ++i) {
    note_bytes_copied(response.checkpoint.size(), CopySite::kWaiterFanout);
    if (waiters[i].done) waiters[i].done(response);
  }
  if (!waiters.empty() && waiters.back().done) waiters.back().done(std::move(response));
}

bool StorageServer::launch_or_reject(sched::RequestId id, const std::shared_ptr<Entry>& entry) {
  {
    std::unique_lock lock(mu_);
    if (entry->reject_before_start) {
      lock.unlock();
      ActiveIoResponse resp;
      resp.outcome = ActiveOutcome::kRejected;
      resp.status = error(ErrorCode::kRejected, "demoted to normal I/O by scheduling policy");
      complete_entry(id, entry, std::move(resp), 0);
      return false;
    }
  }
  if (!pool_.submit([this, id] { run_kernel(id); })) {
    // Pool already shut down: without this the entry would sit in the
    // table forever and the waiters would never fire. Fail typed.
    {
      std::lock_guard lock(mu_);
      ++stats_.pool_rejections;
    }
    obs::count(metrics_.pool_rejections);
    ActiveIoResponse resp;
    resp.outcome = ActiveOutcome::kFailed;
    resp.status =
        error(ErrorCode::kUnavailable, "worker pool shut down; active request not scheduled");
    complete_entry(id, entry, std::move(resp), 0);
    return false;
  }
  return true;
}

std::optional<ActiveIoResponse> StorageServer::cache_lookup(const ActiveIoRequest& request) {
  if (config_.result_cache_entries == 0) return std::nullopt;
  const std::uint64_t version = fs_.data_server(server_id_).object_version(request.handle);
  std::lock_guard lock(mu_);
  auto it = result_cache_.find(
      CacheKey{request.handle, request.object_offset, request.length, request.operation});
  if (it == result_cache_.end()) {
    ++stats_.cache_misses;
    return std::nullopt;
  }
  if (it->second.version != version) {
    // The object mutated since the result was computed: the entry can
    // never hit again (versions are monotonic), so drop it now instead of
    // letting it squat in the LRU until eviction.
    result_cache_.erase(it);
    ++stats_.cache_invalidations;
    ++stats_.cache_misses;
    obs::count(metrics_.cache_invalidations);
    return std::nullopt;
  }
  it->second.last_use = ++cache_tick_;
  ++stats_.cache_hits;
  obs::count(metrics_.cache_hits);
  ActiveIoResponse resp;
  resp.outcome = ActiveOutcome::kCompleted;
  resp.result = it->second.result;  // another view of the cached slab: no copy
  return resp;
}

void StorageServer::cache_insert(const ActiveIoRequest& request, std::uint64_t version,
                                 const BufferRef& result) {
  if (config_.result_cache_entries == 0) return;
  // Skip if the object changed while the kernel ran (stale result).
  if (fs_.data_server(server_id_).object_version(request.handle) != version) return;
  std::lock_guard lock(mu_);
  if (result_cache_.size() >= config_.result_cache_entries) {
    auto victim = result_cache_.begin();
    for (auto it = result_cache_.begin(); it != result_cache_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    result_cache_.erase(victim);
    ++stats_.cache_evictions;
    obs::count(metrics_.cache_evictions);
  }
  // The entry shares the response's slab (ref-counted view): inserting is
  // free, and the slab lives as long as any hit still holds a view.
  result_cache_[CacheKey{request.handle, request.object_offset, request.length,
                         request.operation}] = CacheEntry{version, result, ++cache_tick_};
}

StorageServer::ActiveTicket StorageServer::submit_active(ActiveIoRequest request,
                                                         ActiveCompletion done) {
  if (auto fi = faults(); fi != nullptr && fi->node_crashed(server_id_, true)) {
    {
      std::lock_guard lock(mu_);
      ++stats_.active_failed;
      ++stats_.crash_rejections;
    }
    if (done) done(crashed_response(server_id_));
    return {};
  }
  if (auto cached = cache_lookup(request)) {
    {
      std::lock_guard lock(mu_);
      ++stats_.active_completed;
    }
    obs::count(metrics_.completed);
    if (done) done(std::move(*cached));
    return {};
  }

  ActiveTicket ticket;
  auto entry = admit(std::move(request), std::move(done), ticket);
  if (entry == nullptr) return ticket;  // attached to an in-flight twin
  if (config_.policy_on_arrival) evaluate_policy();
  if (!launch_or_reject(ticket.id, entry)) return {};  // completed synchronously
  return ticket;
}

std::vector<StorageServer::ActiveTicket> StorageServer::submit_active_batch(
    std::vector<ActiveIoRequest> requests, std::vector<ActiveCompletion> dones) {
  assert(requests.size() == dones.size());
  std::vector<ActiveTicket> tickets(requests.size());
  if (auto fi = faults(); fi != nullptr && fi->node_crashed(server_id_, true)) {
    {
      std::lock_guard lock(mu_);
      stats_.active_failed += requests.size();
      stats_.crash_rejections += requests.size();
    }
    for (auto& done : dones) {
      if (done) done(crashed_response(server_id_));
    }
    return tickets;
  }

  // Register everything first (serving cache hits and coalescing inline),
  // then evaluate the policy ONCE over the combined queue, then launch.
  // This is the collective-admission path: N requests landing together get
  // one scheduling decision instead of N admit-then-interrupt rounds.
  struct Registered {
    std::size_t index;
    std::shared_ptr<Entry> entry;
  };
  std::vector<Registered> registered;
  registered.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (auto cached = cache_lookup(requests[i])) {
      {
        std::lock_guard lock(mu_);
        ++stats_.active_completed;
      }
      obs::count(metrics_.completed);
      if (dones[i]) dones[i](std::move(*cached));
      continue;
    }
    if (auto entry = admit(std::move(requests[i]), std::move(dones[i]), tickets[i])) {
      registered.push_back({i, std::move(entry)});
    }
  }

  if (!registered.empty()) evaluate_policy();

  for (auto& reg : registered) {
    if (!launch_or_reject(tickets[reg.index].id, reg.entry)) tickets[reg.index] = {};
  }
  return tickets;
}

bool StorageServer::cancel_active(const ActiveTicket& ticket, const Status& reason) {
  if (ticket.id == 0) return false;  // completed synchronously at submit
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(ticket.id);
    if (it == entries_.end()) return false;  // already completed/abandoned
    entry = it->second;
    auto w = std::find_if(entry->waiters.begin(), entry->waiters.end(),
                          [&](const Waiter& x) { return x.id == ticket.waiter; });
    if (w == entry->waiters.end()) return false;  // this waiter already fired
    entry->waiters.erase(w);
    if (reason.code() == ErrorCode::kTimedOut) {
      // Preserve the historical accounting: a deadline expiry counts as
      // both a timeout and a failure for this waiter.
      ++stats_.active_timed_out;
      ++stats_.active_failed;
      obs::count(metrics_.timed_out);
    } else {
      ++stats_.active_cancelled;
      obs::count(metrics_.cancelled);
    }
    obs::flight_record(obs::FlightEventKind::kCancel, entry->request.trace.trace_id,
                       server_id_, ticket.id,
                       reason.code() == ErrorCode::kTimedOut ? "waiter timed out"
                                                             : "waiter cancelled");
    if (!entry->waiters.empty()) return true;  // twin waiters keep the run alive
    // Last waiter gone: abandon the request. A queued entry never starts; a
    // running kernel stops at its next chunk boundary and its late
    // completion finds no entry and is discarded.
    entry->reject_before_start = true;
    entry->interrupt.store(true);
    entries_.erase(it);
    obs_queue_depth_locked();
  }
  return true;
}

ActiveIoResponse StorageServer::serve_active(ActiveIoRequest request) {
  obs::ScopedTrace span(serve_active_span_, "server");
  const Seconds timeout = request.timeout;

  // One-shot completion slot shared with the worker. The mutex/cv pair is
  // heap-held so a timed-out waiter can return while a racing completion
  // still fires harmlessly into the (then unobserved) slot.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    ActiveIoResponse resp;
  };
  auto slot = std::make_shared<Slot>();
  auto ticket = submit_active(std::move(request), [slot](ActiveIoResponse r) {
    {
      std::lock_guard lock(slot->mu);
      slot->resp = std::move(r);
      slot->ready = true;
    }
    clock().wake_all(slot->cv);
  });

  std::unique_lock lock(slot->mu);
  if (timeout > 0.0) {
    const bool ready = clock().timed_wait(slot->cv, lock, clock().now() + timeout,
                                          [&] { return slot->ready; });
    if (!ready) {
      const Status expired =
          error(ErrorCode::kTimedOut, "active request " + std::to_string(ticket.id) +
                                          " exceeded its " + std::to_string(timeout) +
                                          "s deadline");
      lock.unlock();
      if (cancel_active(ticket, expired)) {
        ActiveIoResponse resp;
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = expired;
        return resp;
      }
      // Lost the race: the completion fired (or is firing) — take it.
      lock.lock();
      clock().wait(slot->cv, lock, [&] { return slot->ready; });
    }
  } else {
    clock().wait(slot->cv, lock, [&] { return slot->ready; });
  }
  return std::move(slot->resp);
}

std::vector<ActiveIoResponse> StorageServer::serve_active_batch(
    std::vector<ActiveIoRequest> requests) {
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    ActiveIoResponse resp;
  };
  const std::size_t n = requests.size();
  std::vector<std::shared_ptr<Slot>> slots;
  std::vector<ActiveCompletion> dones;
  slots.reserve(n);
  dones.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto slot = std::make_shared<Slot>();
    slots.push_back(slot);
    dones.push_back([slot](ActiveIoResponse r) {
      {
        std::lock_guard lock(slot->mu);
        slot->resp = std::move(r);
        slot->ready = true;
      }
      clock().wake_all(slot->cv);
    });
  }
  (void)submit_active_batch(std::move(requests), std::move(dones));
  std::vector<ActiveIoResponse> responses(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::unique_lock lock(slots[i]->mu);
    clock().wait(slots[i]->cv, lock, [&] { return slots[i]->ready; });
    responses[i] = std::move(slots[i]->resp);
  }
  return responses;
}

void StorageServer::probe() {
  SystemStatus status;
  {
    std::lock_guard lock(mu_);
    status = snapshot_status_locked();
  }
  obs::count(metrics_.probes);
  ce_.observe(status);
  evaluate_policy();
}

SystemStatus StorageServer::snapshot_status_locked() const {
  SystemStatus s;
  for (const auto& [id, entry] : entries_) {
    if (entry->state == EntryState::kQueued && !entry->reject_before_start) {
      ++s.queued_active;
      s.queued_bytes += entry->request.length;
    } else if (entry->state == EntryState::kRunning) {
      ++s.running_kernels;
      s.queued_bytes += entry->request.length;
    }
  }
  s.queued_normal = normal_inflight_;
  // CPU pressure reported to the CE is *external* to the kernels being
  // scheduled: normal-I/O service work (the PFS daemon's share of the
  // node). The kernels themselves are the variable under optimization.
  s.cpu_utilization =
      std::min(1.0, static_cast<double>(normal_inflight_) / static_cast<double>(config_.cores));
  s.memory_utilization = 0.0;  // in-memory store: not a constraint here
  return s;
}

std::string StorageServer::pipeline_rate_key(const kernels::OperationSpec& spec) const {
  const std::string ops = spec.get("ops", "");
  std::string bottleneck = "pipe";  // unknown unless every stage has rates
  BytesPerSec slowest = 0.0;
  std::size_t pos = 0;
  while (pos <= ops.size() && !ops.empty()) {
    auto bar = ops.find('|', pos);
    if (bar == std::string::npos) bar = ops.size();
    auto stage = kernels::PipelineKernel::parse_stage(ops.substr(pos, bar - pos));
    if (!stage.is_ok()) return "pipe";
    auto rates = ce_.rates().get(stage.value().kernel);
    if (!rates.is_ok()) return "pipe";
    if (slowest == 0.0 || rates.value().storage_max < slowest) {
      slowest = rates.value().storage_max;
      bottleneck = stage.value().kernel;
    }
    pos = bar + 1;
    if (bar == ops.size()) break;
  }
  return bottleneck;
}

std::vector<StorageServer::PolicyGroup> StorageServer::policy_groups() const {
  struct Item {
    std::map<std::string, std::size_t>::const_iterator group;
    std::size_t rank;  ///< copied under mu_: a new rate key renumbers the ranks
    sched::ActiveRequest request;
  };
  std::vector<Item> items;
  {
    std::lock_guard lock(mu_);
    items.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) {
      if (entry->state == EntryState::kDone || entry->reject_before_start) continue;
      if (entry->interrupt.load()) continue;  // already being interrupted
      const OpInfo& op = *entry->op;
      const Bytes d = entry->request.length;
      items.push_back({op.group, op.group->second,
                       sched::ActiveRequest{id, d, op.prototype ? op.prototype->result_size(d) : 0,
                                            entry->request.operation}});
    }
  }
  // Entries iterate in id order; a stable sort by rank yields key order
  // with ids ascending inside each group.
  auto by_rank = [](const Item& a, const Item& b) { return a.rank < b.rank; };
  if (!std::is_sorted(items.begin(), items.end(), by_rank)) {
    std::stable_sort(items.begin(), items.end(), by_rank);
  }
  std::vector<PolicyGroup> groups;
  for (auto& item : items) {
    if (groups.empty() || groups.back().rate_key != item.group->first) {
      groups.push_back(PolicyGroup{item.group->first, {}});
    }
    groups.back().requests.push_back(std::move(item.request));
  }
  return groups;
}

void StorageServer::evaluate_policy() {
  obs::ScopedTrace span(evaluate_policy_span_, "ce");
  for (const auto& [op, requests] : policy_groups()) {
    auto policy = ce_.schedule(op, requests);
    if (!policy.is_ok()) {
      // No rates for this op: leave it active (never schedule blind
      // demotions) and note it once.
      DOSAS_LOG_DEBUG("no cost model for op '%s'; leaving %zu request(s) active", op.c_str(),
                      requests.size());
      continue;
    }
    if (policy.value().active_count() == requests.size()) continue;  // nothing demoted
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (policy.value().active[i]) continue;
      auto it = entries_.find(requests[i].id);
      if (it == entries_.end()) continue;  // completed meanwhile
      auto& entry = *it->second;
      if (entry.state == EntryState::kQueued) {
        entry.reject_before_start = true;
        obs::flight_record(obs::FlightEventKind::kDemotion, entry.request.trace.trace_id,
                           server_id_, requests[i].id, "queued request demoted by policy");
        if (obs::tracing_enabled() && entry.request.trace.valid()) {
          obs::Tracer::global().instant(obs_name_ + ".demote", "ce",
                                        entry.request.trace.child("demote"));
        }
      } else if (entry.state == EntryState::kRunning) {
        // Hysteresis: nearly-finished kernels are cheaper to let complete
        // than to checkpoint, ship, and re-run remotely.
        const Bytes done = entry.progress.load(std::memory_order_relaxed);
        const Bytes total = entry.request.length;
        const Bytes remaining = total > done ? total - done : 0;
        if (static_cast<double>(remaining) >
            config_.interrupt_min_remaining * static_cast<double>(total)) {
          entry.interrupt.store(true);
          obs::count(metrics_.interrupts_signalled);
          obs::flight_record(obs::FlightEventKind::kInterrupt, entry.request.trace.trace_id,
                             server_id_, requests[i].id, "running kernel interrupt signalled");
          if (obs::tracing_enabled() && entry.request.trace.valid()) {
            obs::Tracer::global().instant(obs_name_ + ".interrupt", "ce",
                                          entry.request.trace.child("interrupt"));
          }
        }
      }
    }
  }
}

void StorageServer::run_kernel(sched::RequestId id) {
  std::shared_ptr<Entry> entry;
  std::shared_ptr<fault::FaultInjector> fi;
  bool rejected = false;  // snapshot under mu_: cancel_active writes the flag
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;  // every waiter cancelled before start
    entry = it->second;
    rejected = entry->reject_before_start;
    if (rejected) {
      // Completed via complete_entry below, outside mu_.
    } else {
      entry->state = EntryState::kRunning;
    }
    fi = faults_;
  }
  // The request, its OpInfo and enqueued_at are immutable once registered,
  // and `entry` keeps them alive: read them in place, without mu_.
  const ActiveIoRequest& request = entry->request;
  const OpInfo& op = *entry->op;
  std::atomic<bool>& interrupt = entry->interrupt;
  std::atomic<Bytes>& progress = entry->progress;
  if (rejected) {
    ActiveIoResponse resp;
    resp.outcome = ActiveOutcome::kRejected;
    resp.status = error(ErrorCode::kRejected, "demoted to normal I/O before start");
    complete_entry(id, entry, std::move(resp), 0);
    return;
  }
  if (fi != nullptr) fi->note_kernel_start(server_id_);

  // Queue-wait stage: registration -> this launch, emitted as a span that
  // joins the request's causal tree and closes the client's flow arrow on
  // this worker thread.
  {
    const bool tracing = obs::tracing_enabled();
    const bool metrics = obs::metrics_enabled();
    if (tracing || metrics) {
      const double wait_us = (clock().now() - entry->enqueued_at) * 1e6;
      if (tracing && request.trace.valid()) {
        auto& tracer = obs::Tracer::global();
        const auto qctx = request.trace.child("queue");
        tracer.complete(obs_name_ + ".queue_wait", "server", tracer.now_us() - wait_us,
                        wait_us, qctx);
        tracer.flow_finish(obs_name_ + ".queue_wait", "flow", request.trace.span_id, qctx);
      }
      if (metrics) {
        metrics_.queue_wait_us.get(op.kernel).observe(wait_us, request.trace.trace_id);
      }
    }
  }
  obs::flight_record(obs::FlightEventKind::kStateTransition, request.trace.trace_id,
                     server_id_, id, "kernel launched");

  // Completion delivery is the LAST thing this worker does for the
  // request: the waiter it unblocks may immediately finish the run and
  // snapshot the trace/metrics, so every observable side effect — the
  // kernel span above all — must land first.
  ActiveIoResponse resp;
  Bytes done_bytes = 0;
  {
    obs::ScopedTrace span(request.operation, "kernel", request.trace.child("kernel"));
    const bool obs_on = obs::metrics_enabled();
    const double t0 = obs_on ? obs::now_us() : 0.0;

    [&] {
      if (!op.status.is_ok()) {
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = op.status;
        return;
      }
      auto kernel_or = registry_.create(op.spec);
      if (!kernel_or.is_ok()) {
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = kernel_or.status();
        return;
      }
      auto kernel = std::move(kernel_or).value();
      try {
        kernel->reset();

        Bytes from = request.object_offset;
        if (request.is_resumption()) {
          // Cooperative resumption: adopt the shipped state and continue. A
          // corrupted checkpoint fails the decode's checksum (kCorrupted) and
          // the request fails typed — never a silent restart from zero state.
          auto decoded = Checkpoint::decode(request.resume_checkpoint);
          Status restored =
              decoded.is_ok() ? kernel->restore(decoded.value()) : decoded.status();
          if (!restored.is_ok()) {
            resp.outcome = ActiveOutcome::kFailed;
            resp.status = restored;
            return;
          }
          from = request.resume_from;
        }

        const auto& ds = fs_.data_server(server_id_);
        // Version observed before the scan: the result is cacheable only if
        // the object is unchanged when the kernel finishes.
        const std::uint64_t version_at_start = ds.object_version(request.handle);
        const Bytes end = request.object_offset + request.length;

        // Why the kernel stopped, when it did: the stop check below folds the
        // scheduler's interrupt flag and the injected node crash into one
        // chunk-granular poll (paper §III-C's interruption-check interval).
        enum class StopCause { kNone, kInterrupt, kCrash };
        StopCause cause = StopCause::kNone;
        auto stop = [&]() -> bool {
          if (interrupt.load()) {
            cause = StopCause::kInterrupt;
            return true;
          }
          if (fi != nullptr && fi->node_crashed(server_id_)) {
            cause = StopCause::kCrash;
            return true;
          }
          if (fi != nullptr) {
            // Straggler injection: sleep in interruptible slices so a
            // timed-out (abandoned) request stops stalling the worker
            // promptly. Slices run on the injected clock — deterministic
            // jumps under DST.
            Seconds stall = fi->inject_stall(server_id_);
            while (stall > 0.0 && !interrupt.load()) {
              const Seconds slice = std::min(stall, 0.005);
              clock().sleep(slice);
              stall -= slice;
            }
            if (fi->inject_kernel_throw(server_id_)) {
              throw std::runtime_error("injected kernel fault");
            }
          }
          return false;
        };
        auto read = [&](Bytes pos, Bytes len) {
          return ds.read_object_ref(request.handle, pos, len);
        };
        // Calibrated pacing (config_.pace_kernel_rates): charge each chunk
        // its cost at the table's storage-side rate for this operation —
        // the same S_{C,op} the CE's cost model predicts with. On the
        // injected clock, so a VirtualClock turns the sleeps into
        // deterministic jumps.
        double pace_rate = 0.0;
        if (config_.pace_kernel_rates) {
          if (auto rates = ce_.rates().get(op.group->first); rates.is_ok()) {
            pace_rate = rates.value().storage_max;
            if (config_.capacity_factor > 0.0) pace_rate *= config_.capacity_factor;
          }
        }
        auto note_progress = [&](Bytes chunk, Bytes total) {
          progress.store(total, std::memory_order_relaxed);
          if (pace_rate > 0.0 && chunk > 0) {
            clock().sleep(static_cast<double>(chunk) / pace_rate);
          }
        };

        auto streamed = kernels::stream_extent(*kernel, from, end, config_.chunk_size, read,
                                               stop, note_progress);
        if (!streamed.is_ok()) {
          resp.outcome = ActiveOutcome::kFailed;
          resp.status = streamed.status();
          done_bytes = progress.load(std::memory_order_relaxed);
          return;
        }
        const Bytes processed = streamed.value().processed;

        if (streamed.value().stopped) {
          resp.outcome = ActiveOutcome::kInterrupted;
          resp.checkpoint = kernel->checkpoint().encode();
          if (fi != nullptr) fi->inject_checkpoint_corruption(resp.checkpoint);
          resp.resume_offset = streamed.value().position;
          resp.status =
              cause == StopCause::kCrash
                  ? error(ErrorCode::kUnavailable,
                          "storage node crashed mid-kernel; checkpoint flushed")
                  : error(ErrorCode::kInterrupted, "kernel interrupted by scheduling policy");
          done_bytes = processed;
          return;
        }

        resp.outcome = ActiveOutcome::kCompleted;
        resp.result = BufferRef::adopt(kernel->finalize());
        // Resumed results are not cacheable: part of the scan predates
        // version_at_start, so freshness cannot be vouched for.
        if (!request.is_resumption()) cache_insert(request, version_at_start, resp.result);
        if (obs_on && processed > 0) {
          const double secs = (obs::now_us() - t0) * 1e-6;
          if (secs > 0.0) {
            metrics_.kernel_mibps.get(op.kernel).observe(static_cast<double>(processed) /
                                                         (1024.0 * 1024.0) / secs);
          }
        }
        done_bytes = processed;
      } catch (const std::exception& e) {
        // A throwing kernel fails its own request, never the worker (and
        // never the process): surface a typed error and count it.
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        if (obs_on) metrics_.kernel_exceptions.get().inc();
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = error(ErrorCode::kInternal, std::string("kernel threw: ") + e.what());
        done_bytes = 0;
      } catch (...) {
        {
          std::lock_guard lock(mu_);
          ++stats_.kernel_exceptions;
        }
        if (obs_on) metrics_.kernel_exceptions.get().inc();
        resp.outcome = ActiveOutcome::kFailed;
        resp.status = error(ErrorCode::kInternal, "kernel threw a non-std exception");
        done_bytes = 0;
      }
    }();
    if (obs_on) {
      metrics_.kernel_exec_us.get(op.kernel).observe(obs::now_us() - t0, request.trace.trace_id);
    }
  }
  complete_entry(id, entry, std::move(resp), done_bytes);
}

StorageServer::Stats StorageServer::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t StorageServer::inflight() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->state != EntryState::kDone) ++n;
  }
  return n;
}

}  // namespace dosas::server
