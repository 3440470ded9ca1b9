#include "scenario/federation_experiment.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "federation/federation.hpp"
#include "power/manager.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/fault_factory.hpp"
#include "scenario/metrics.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/policy_factory.hpp"
#include "scenario/power_factory.hpp"
#include "sim/engine.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "utility/utility_fn.hpp"

namespace heteroplace::scenario {

namespace {

/// Rethrow a name parser's std::invalid_argument as a ConfigError naming
/// the config key the name came from.
template <typename Parse>
void check_name(const std::string& key, Parse parse) {
  try {
    (void)parse();
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(key + ": " + e.what());
  }
}

void require(bool ok, const std::string& key, const std::string& what) {
  if (!ok) throw util::ConfigError(key + ": " + what);
}

/// Per-class placeable-capacity series, recorded only for explicit
/// machine classes so a scalar run records nothing new (its digest is
/// pinned).
void sample_class_capacity(const core::World& world, util::TimeSeriesSet& series, double t) {
  const cluster::MachineClassRegistry& reg = world.cluster().classes();
  if (!reg.explicit_classes()) return;
  const auto by_class = world.cluster().placeable_capacity_by_class();
  for (std::size_t ci = 0; ci < by_class.size(); ++ci) {
    series.add("class_" + reg.at(static_cast<cluster::ClassId>(ci)).name + "_placeable_mhz", t,
               by_class[ci].cpu.get());
  }
}

}  // namespace

void validate_migration_spec(const MigrationSpec& spec, std::size_t n_domains) {
  check_name("migration.policy", [&] { return migration::make_migration_policy(spec.policy); });
  check_name("migration.link_mode",
             [&] { return migration::link_mode_from_string(spec.link_mode); });
  check_name("migration.selection",
             [&] { return migration::selection_from_string(spec.selection); });
  require(spec.check_interval_s > 0.0, "migration.check_interval_s", "must be positive");
  require(spec.max_moves_per_tick >= 1, "migration.max_moves_per_tick", "must be >= 1");
  require(spec.max_transfer_retries >= 0, "migration.max_transfer_retries",
          "must be nonnegative (0 = fail back on the first link fault)");
  require(spec.retry_backoff_s > 0.0, "migration.retry_backoff_s", "must be positive");
  require(spec.retry_backoff_max_s >= spec.retry_backoff_s, "migration.retry_backoff_max_s",
          "must be >= migration.retry_backoff_s");
  require(spec.default_bandwidth_mb_per_s > 0.0, "migration.default_bandwidth_mb_per_s",
          "must be positive");
  require(spec.default_latency_s >= 0.0, "migration.default_latency_s", "must be nonnegative");

  // -1.0 is the documented "keep the model default" sentinel; any other
  // out-of-range value is a mistake and must not pass silently — and
  // neither may a setting the selected link mode never reads.
  const bool uplink_mode =
      migration::link_mode_from_string(spec.link_mode) == migration::LinkMode::kUplink;
  const std::string no_such_domain = "no such domain (" + std::to_string(n_domains) + " domains)";
  for (const LinkSpec& link : spec.links) {
    const std::string pair = std::to_string(link.from) + "." + std::to_string(link.to);
    const std::string key =
        (link.bandwidth_mb_per_s != -1.0 ? "bandwidth." : "link_latency.") + pair;
    require(link.from < n_domains && link.to < n_domains, key, no_such_domain);
    require(link.from != link.to, key, "a link joins two distinct domains");
    if (link.bandwidth_mb_per_s != -1.0) {
      require(link.bandwidth_mb_per_s > 0.0, "bandwidth." + pair, "must be positive");
      require(!uplink_mode, "bandwidth." + pair,
              "has no effect with migration.link_mode = uplink; use uplink_bandwidth.<i> "
              "(per-pair latency still applies)");
    }
    require(link.latency_s == -1.0 || link.latency_s >= 0.0, "link_latency." + pair,
            "must be nonnegative");
  }
  for (const UplinkSpec& uplink : spec.uplinks) {
    const std::string key = "uplink_bandwidth." + std::to_string(uplink.domain);
    require(uplink.domain < n_domains, key, no_such_domain);
    require(uplink.bandwidth_mb_per_s > 0.0, key, "must be positive");
    require(uplink_mode, key,
            "has no effect with migration.link_mode = " + spec.link_mode +
                "; set migration.link_mode = uplink");
  }
}

void validate_names(const Scenario& s) {
  const auto unique = [](const std::string& family, std::size_t n, auto name_of) {
    std::map<std::string, std::size_t> first;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, fresh] = first.emplace(name_of(i), i);
      require(fresh, family + "." + std::to_string(i) + ".name",
              "'" + it->first + "' is already the name of " + family + "." +
                  std::to_string(it->second));
    }
  };
  unique("domain", s.domains.size(), [&](std::size_t i) { return s.domains[i].name; });
  unique("app", s.apps.size(), [&](std::size_t i) { return s.apps[i].spec.name; });
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    require(s.apps[i].spec.name != "jobs", "app." + std::to_string(i) + ".name",
            "'jobs' names the batch job stream");
  }
}

Scenario federate(const Scenario& single, int n_domains, const std::string& router) {
  if (n_domains < 1) throw std::invalid_argument("federate: need at least one domain");
  Scenario fs = single;
  if (n_domains > 1) fs.name += "-federated";
  fs.router = router;
  fs.domains.clear();
  for (int i = 0; i < n_domains; ++i) {
    fs.domains.push_back(domain_share(single.cluster, i, n_domains));
    if (fs.domains.back().cluster.total_nodes() < 1) {
      throw std::invalid_argument("federate: more domains than nodes");
    }
  }
  return fs;
}

FederatedResult run_federated_experiment(const Scenario& fs, const ExperimentOptions& options) {
  // A zero interval would reschedule the sampler at the same instant
  // forever.
  if (!(fs.sample_interval_s > 0.0)) {
    throw std::invalid_argument("run_federated_experiment: sample_interval_s must be positive");
  }
  validate_names(fs);
  // An empty `domains` is one domain, dc0, holding the whole cluster.
  const std::vector<DomainSpec> whole_cluster{domain_share(fs.cluster, 0, 1)};
  const std::vector<DomainSpec>& domains = fs.domains.empty() ? whole_cluster : fs.domains;
  sim::Engine engine;
  engine.set_threads(static_cast<unsigned>(effective_engine_threads(fs.engine_threads)));
  std::vector<std::unique_ptr<power::PowerManager>> power_mgrs;
  // Declared before the federation: domain controllers hold ObsContext
  // pointers into this bundle, so it must strictly outlive `fed`.
  Observability obs = make_observability(fs.obs, fs.slos);
  if (obs.trace) {
    engine.set_observer(obs.trace.get());
    obs.trace->set_process_name(0, "global");
  }
  if (obs.profiler) engine.enable_timing();
  // The global/serial spine's context: router, migration, faults, sampling.
  const obs::ObsContext spine = obs.context(0);
  federation::Federation fed(engine, federation::make_router(fs.router));
  fed.set_obs(spine);

  // --- models (shared across domains) ----------------------------------------
  auto job_model = std::make_shared<utility::JobUtilityModel>(
      utility::make_utility(fs.jobs.utility_shape));
  auto tx_model = std::make_shared<utility::TxUtilityModel>();

  // --- domains ----------------------------------------------------------------
  core::ControllerConfig ctrl_cfg;
  ctrl_cfg.cycle = util::Seconds{fs.controller.cycle_s};
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const DomainSpec& spec = domains[i];
    core::ControllerConfig cfg = ctrl_cfg;
    const bool explicit_phase = spec.first_cycle_at_s >= 0.0;
    if (explicit_phase) cfg.first_cycle_at = util::Seconds{spec.first_cycle_at_s};
    federation::Domain& d = fed.add_domain(
        spec.name,
        make_experiment_policy(options, fs.controller.solver, job_model, tx_model),
        fs.controller.latencies, cfg, /*auto_stagger=*/!explicit_phase);
    populate_cluster(d.world().cluster(), spec.cluster);
    const auto pid = static_cast<std::uint32_t>(i + 1);
    if (obs.trace) obs.trace->set_process_name(pid, spec.name);
    d.controller().set_obs(obs.context(pid, spec.name));
  }

  // --- apps (router splits demand across domains) -----------------------------
  for (const auto& app : fs.apps) {
    fed.add_app(app.spec, app.trace);
  }

  // --- job stream (one global stream, routed at arrival time) -----------------
  util::Rng rng(fs.seed);
  std::vector<workload::PhasedPoissonArrivals::Phase> phases;
  phases.push_back({util::Seconds{fs.jobs.mean_interarrival_s}, fs.jobs.count});
  if (fs.jobs.tail_count > 0 && fs.jobs.tail_mean_interarrival_s > 0.0) {
    phases.push_back({util::Seconds{fs.jobs.tail_mean_interarrival_s}, fs.jobs.tail_count});
  }
  workload::PhasedPoissonArrivals arrivals{util::Seconds{0.0}, std::move(phases)};
  auto job_specs = workload::generate_jobs(arrivals, fs.jobs.tmpl, rng);

  // --- per-domain metrics ------------------------------------------------------
  std::vector<MetricsRecorder> recorders;
  recorders.reserve(fed.domain_count());
  std::vector<long> violations(fed.domain_count(), 0);
  // Equalizer-iteration histograms, one per domain; only the utility
  // policy equalizes, so other policies register none.
  std::vector<obs::Histogram*> eq_iterations(fed.domain_count(), nullptr);
  for (std::size_t i = 0; i < fed.domain_count(); ++i) {
    recorders.emplace_back(fed.domain(i).world(), job_model, tx_model);
    recorders.back().summary().scenario = fs.name + "/" + fed.domain(i).name();
    recorders.back().summary().policy = to_string(options.policy);
    recorders.back().set_sla(fed.domain(i).controller().obs().sla);
    if (obs.metrics && options.policy == PolicyKind::kUtilityDriven) {
      eq_iterations[i] = &obs.metrics->histogram(
          "controller_equalizer_iterations", "Bisection iterations per equalize call",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}, obs::prometheus_label("domain", fed.domain(i).name()));
    }
    // Domain-level hook (not the raw executor slot, which the federation
    // owns for its load aggregates).
    fed.domain(i).set_completion_callback(
        [&recorders, i](const workload::Job& job) { recorders[i].on_job_completed(job); });
  }
  fed.set_cycle_observer([&](const federation::Domain& d, const core::CycleReport& report) {
    recorders[d.index()].on_cycle(report);
    if (eq_iterations[d.index()] != nullptr && report.diag.eq_iterations >= 0) {
      eq_iterations[d.index()]->observe(static_cast<double>(report.diag.eq_iterations));
    }
    if (options.validate_invariants) {
      const auto issues = d.world().cluster().validate();
      violations[d.index()] += static_cast<long>(issues.size());
      for (const auto& msg : issues) util::log_warn() << "invariant[" << d.name() << "]: " << msg;
    }
  });

  // --- arrivals and weight events: one cursor over a time-sorted script -------
  // Job arrivals and weight events share kWorkloadArrival. One event walks
  // their merge: it handles one entry per firing and reschedules itself at
  // the next entry's time, so the heap holds one arrival event however
  // many jobs the run has. At equal times arrivals come first, then
  // weight events, each in its own order: the sequence-number order the
  // engine gave them when each had its own pre-scheduled event. One entry
  // per firing keeps the event count unchanged too.
  for (const auto& ev : fs.weight_events) {
    if (ev.domain >= fed.domain_count()) {
      throw std::invalid_argument("run_federated_experiment: weight event domain out of range");
    }
  }
  // Generated arrival times never decrease; weight events are listed in
  // any order.
  std::vector<std::size_t> weight_order(fs.weight_events.size());
  for (std::size_t i = 0; i < weight_order.size(); ++i) weight_order[i] = i;
  std::stable_sort(weight_order.begin(), weight_order.end(), [&](std::size_t a, std::size_t b) {
    return fs.weight_events[a].at_s < fs.weight_events[b].at_s;
  });
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::size_t next_job = 0;
  std::size_t next_weight = 0;
  const auto job_time = [&] {
    return next_job < job_specs.size() ? job_specs[next_job].submit_time.get() : kNone;
  };
  const auto weight_time = [&] {
    return next_weight < weight_order.size() ? fs.weight_events[weight_order[next_weight]].at_s
                                             : kNone;
  };
  std::function<void()> arrival_cursor;
  const auto schedule_cursor = [&] {
    const double t = std::min(job_time(), weight_time());
    if (t < kNone) {
      engine.schedule_at(util::Seconds{t}, sim::EventPriority::kWorkloadArrival, arrival_cursor);
    }
  };
  arrival_cursor = [&] {
    if (job_time() <= weight_time()) {
      fed.submit_job(std::move(job_specs[next_job++]));
    } else {
      const WeightEvent& ev = fs.weight_events[weight_order[next_weight++]];
      fed.set_domain_weight(ev.domain, ev.weight);
    }
    schedule_cursor();
  };
  schedule_cursor();

  // --- migration subsystem (optional) -----------------------------------------
  std::optional<migration::MigrationManager> migration_mgr;
  if (fs.migration.enabled) {
    validate_migration_spec(fs.migration, fed.domain_count());
    migration::TransferModel transfer{fs.migration.default_bandwidth_mb_per_s,
                                      fs.migration.default_latency_s};
    for (const LinkSpec& link : fs.migration.links) {
      if (link.bandwidth_mb_per_s > 0.0) {
        transfer.set_link_bandwidth(link.from, link.to, link.bandwidth_mb_per_s);
      }
      if (link.latency_s >= 0.0) transfer.set_link_latency(link.from, link.to, link.latency_s);
    }
    for (const UplinkSpec& uplink : fs.migration.uplinks) {
      transfer.set_uplink_bandwidth(uplink.domain, uplink.bandwidth_mb_per_s);
    }
    migration::PolicyConfig pol_cfg;
    pol_cfg.high_watermark = fs.migration.high_watermark;
    pol_cfg.low_watermark = fs.migration.low_watermark;
    pol_cfg.selection = migration::selection_from_string(fs.migration.selection);
    migration::MigrationOptions mig_opts;
    mig_opts.check_interval = util::Seconds{fs.migration.check_interval_s};
    mig_opts.max_moves_per_tick = fs.migration.max_moves_per_tick;
    mig_opts.link_mode = migration::link_mode_from_string(fs.migration.link_mode);
    mig_opts.max_transfer_retries = fs.migration.max_transfer_retries;
    mig_opts.retry_backoff_s = fs.migration.retry_backoff_s;
    mig_opts.retry_backoff_max_s = fs.migration.retry_backoff_max_s;
    mig_opts.rescore_queued_transfers = fs.migration.rescore_queued_transfers;
    migration_mgr.emplace(fed, std::move(transfer),
                          migration::make_migration_policy(fs.migration.policy, pol_cfg),
                          mig_opts);
    migration_mgr->set_obs(spine);
  }

  // --- power subsystem (optional) -----------------------------------------------
  // One manager per domain: each meters and consolidates its own cluster,
  // under the federation cap or its DomainSpec override. Disabled runs
  // construct nothing and stay bit-identical to the pre-power runner.
  if (fs.power.enabled) {
    for (std::size_t i = 0; i < fed.domain_count(); ++i) {
      power_mgrs.push_back(make_power_manager(engine, fed.domain(i).world(), fs.power,
                                              fs.controller.cycle_s,
                                              domains[i].power_cap_w,
                                              static_cast<sim::ShardId>(i)));
      power_mgrs.back()->set_obs(fed.domain(i).controller().obs());
    }
  }

  const double horizon = options.horizon_override_s > 0.0 ? options.horizon_override_s
                                                          : fs.horizon_s;

  // --- fault injection (optional) ---------------------------------------------
  // A faults-disabled run creates nothing here and stays bit-identical to
  // the pre-fault runner (pinned by tests/fault_test.cpp).
  std::unique_ptr<faults::FaultInjector> injector;
  if (fs.faults.enabled) {
    std::vector<std::size_t> nodes_per_domain;
    for (const DomainSpec& d : domains) {
      nodes_per_domain.push_back(static_cast<std::size_t>(d.cluster.total_nodes()));
    }
    validate_fault_spec(fs.faults, nodes_per_domain, fs.migration.enabled, horizon);
    faults::FaultOptions fault_opts;
    fault_opts.checkpoint_interval_s = fs.faults.checkpoint_interval_s;
    fault_opts.max_concurrent_repairs = fs.faults.max_concurrent_repairs;
    std::vector<faults::DomainHooks> hooks;
    for (std::size_t i = 0; i < fed.domain_count(); ++i) {
      hooks.push_back({&fed.domain(i).world(), &fed.domain(i).controller(),
                       power_mgrs.empty() ? nullptr : power_mgrs[i].get()});
    }
    injector = std::make_unique<faults::FaultInjector>(
        engine, std::move(hooks),
        build_fault_schedule(fs.faults, fs.seed, horizon, nodes_per_domain), fault_opts);
    injector->set_federation(&fed);
    if (migration_mgr) injector->set_migration(&*migration_mgr);
    injector->set_obs(spine);
  }

  // Per-domain and federation-aggregated samples share one
  // AllocationSample per domain per tick: the fed_* series are the sum
  // of exactly the values the per-domain recorders record, bit for bit
  // (asserted by the integration tests).
  FederatedResult out;
  auto sample_all = [&](util::Seconds now) {
    const double t = now.get();
    double tx_alloc = 0.0;
    double lr_alloc = 0.0;
    int running = 0;
    int active = 0;
    double completed = 0.0;
    for (std::size_t i = 0; i < fed.domain_count(); ++i) {
      const core::World& world = fed.domain(i).world();
      const AllocationSample sample = sample_allocations(world);
      recorders[i].sample(now, sample);
      sample_class_capacity(world, recorders[i].series(), t);
      tx_alloc += sample.tx_alloc_mhz;
      lr_alloc += sample.lr_alloc_mhz;
      running += sample.jobs_running;
      active += sample.active_jobs;
      completed += static_cast<double>(world.completed_count());
      out.series.add("weight_" + fed.domain(i).name(), t, fed.domain(i).weight());
    }
    out.series.add("fed_tx_alloc_mhz", t, tx_alloc);
    out.series.add("fed_lr_alloc_mhz", t, lr_alloc);
    out.series.add("fed_jobs_running", t, running);
    out.series.add("fed_active_jobs", t, active);
    out.series.add("fed_jobs_completed", t, completed);
    if (migration_mgr) {
      const migration::MigrationStats& ms = migration_mgr->stats();
      out.series.add("mig_started", t, static_cast<double>(ms.started));
      out.series.add("mig_completed", t, static_cast<double>(ms.completed));
      out.series.add("mig_cancelled", t, static_cast<double>(ms.cancelled));
      out.series.add("mig_in_flight", t, static_cast<double>(ms.in_flight));
      out.series.add("mig_bytes_mb", t, ms.bytes_moved_mb);
      out.series.add("mig_transfer_s", t, ms.transfer_seconds);
      out.series.add("mig_work_lost_mhz_s", t, ms.work_lost_mhz_s);
      const migration::LinkScheduler& links = migration_mgr->link_scheduler();
      out.series.add("mig_queue_depth", t, static_cast<double>(links.queued_transfers()));
      out.series.add("mig_queue_wait_s", t, ms.queue_wait_seconds);
      out.series.add("mig_active_transfers", t, static_cast<double>(links.active_transfers()));
      out.series.add("mig_transfer_retries", t, static_cast<double>(ms.transfer_retries));
      out.series.add("mig_transfer_failbacks", t, static_cast<double>(ms.transfer_failbacks));
      out.series.add("mig_rescored", t, static_cast<double>(ms.transfers_rescored));
    }
    if (injector) {
      double avail_sum = 0.0;
      double failed_nodes = 0.0;
      double lost_s = 0.0;
      double downtime = 0.0;
      for (std::size_t i = 0; i < fed.domain_count(); ++i) {
        const std::string& name = fed.domain(i).name();
        const faults::DomainFaultStats ds = injector->stats(i, now);
        const double avail = injector->availability(i);
        out.series.add("availability_" + name, t, avail);
        out.series.add("fault_failed_nodes_" + name, t,
                       static_cast<double>(injector->failed_node_count(i)));
        out.series.add("jobs_lost_progress_s_" + name, t, ds.jobs_lost_progress_s);
        avail_sum += avail;
        failed_nodes += static_cast<double>(injector->failed_node_count(i));
        lost_s += ds.jobs_lost_progress_s;
        downtime += ds.downtime_s;
      }
      out.series.add("fed_availability", t,
                     avail_sum / static_cast<double>(fed.domain_count()));
      out.series.add("fed_fault_failed_nodes", t, failed_nodes);
      out.series.add("fed_jobs_lost_progress_s", t, lost_s);
      out.series.add("fed_fault_downtime_s", t, downtime);
    }
    if (!power_mgrs.empty()) {
      double draw = 0.0;
      double energy = 0.0;
      double parked = 0.0;
      for (std::size_t i = 0; i < fed.domain_count(); ++i) {
        const double d_draw = power_mgrs[i]->current_draw_w();
        const double d_energy = power_mgrs[i]->energy_wh(now);
        out.series.add("power_w_" + fed.domain(i).name(), t, d_draw);
        out.series.add("energy_wh_" + fed.domain(i).name(), t, d_energy);
        draw += d_draw;
        energy += d_energy;
        parked += static_cast<double>(power_mgrs[i]->parked_count());
      }
      out.series.add("fed_power_w", t, draw);
      out.series.add("fed_energy_wh", t, energy);
      out.series.add("fed_power_parked_nodes", t, parked);
    }
  };

  const util::Seconds sample_dt{fs.sample_interval_s};
  std::function<void()> sample_tick = [&] {
    const obs::Span span(spine, obs::SpanKind::kSampling, engine.now().get());
    sample_all(engine.now());
    // Serial tick; ledgers visited in fixed domain order, so alert
    // open/close instants are byte-identical across engine thread counts.
    if (obs.alerts) obs.alerts->evaluate(engine.now().get(), obs.ledger_list());
    engine.schedule_in(sample_dt, sim::EventPriority::kSampling, sample_tick);
  };
  engine.schedule_in(sample_dt, sim::EventPriority::kSampling, sample_tick);
  fed.start();
  if (migration_mgr) migration_mgr->start();
  for (auto& mgr : power_mgrs) mgr->start();
  if (injector) injector->start();

  // --- run ---------------------------------------------------------------------
  const std::size_t total_jobs = job_specs.size();
  if (horizon > 0.0) {
    engine.run_until(util::Seconds{horizon});
  } else {
    // Run until every job completes (chunked so the perpetual control
    // loops do not spin forever), capped for safety.
    const double chunk = std::max(10.0 * fs.controller.cycle_s, 6000.0);
    while (fed.total_completed() < total_jobs && engine.now().get() < options.max_sim_time_s) {
      engine.run_until(engine.now() + util::Seconds{chunk});
    }
  }

  // --- finalize -----------------------------------------------------------------
  sample_all(engine.now());  // final sample
  if (obs.alerts) obs.alerts->evaluate(engine.now().get(), obs.ledger_list());
  const auto routed = fed.jobs_per_domain();
  std::vector<ExperimentSummary> summaries;
  for (std::size_t i = 0; i < fed.domain_count(); ++i) {
    DomainResult dr;
    dr.name = fed.domain(i).name();
    dr.jobs_routed = routed[i];
    dr.result.summary = recorders[i].summary();
    dr.result.summary.jobs_submitted =
        static_cast<long>(fed.domain(i).world().submitted_count());
    dr.result.summary.sim_end_time_s = engine.now().get();
    dr.result.summary.invariant_violations = violations[i];
    if (dr.result.summary.jobs_completed > 0) {
      dr.result.summary.goal_met_fraction /=
          static_cast<double>(dr.result.summary.jobs_completed);
    }
    if (injector) {
      const util::Seconds end = engine.now();
      const faults::DomainFaultStats ds = injector->stats(i, end);
      ExperimentSummary& s = dr.result.summary;
      s.fault_node_crashes = ds.node_crashes;
      s.fault_link_faults = ds.link_faults;
      s.fault_blackouts = ds.blackouts;
      s.jobs_reverted = ds.jobs_reverted;
      s.jobs_lost_progress_s = ds.jobs_lost_progress_s;
      s.fault_downtime_s = ds.downtime_s;
      s.availability = end.get() > 0.0 ? 1.0 - ds.downtime_s / end.get() : 1.0;
    }
    dr.result.series = std::move(recorders[i].series());
    summaries.push_back(dr.result.summary);
    out.domains.push_back(std::move(dr));
  }
  out.summary = merge_summaries(summaries);
  out.summary.scenario = fs.name;
  if (migration_mgr) out.migration = migration_mgr->stats();
  if (injector) {
    const util::Seconds end = engine.now();
    out.faults = injector->totals(end);
    out.fault_mttr_s = injector->mttr_s();
    ExperimentSummary& s = out.summary;
    s.fault_node_crashes = out.faults.node_crashes;
    s.fault_link_faults = out.faults.link_faults;
    s.fault_blackouts = out.faults.blackouts;
    s.jobs_reverted = out.faults.jobs_reverted;
    s.jobs_lost_progress_s = out.faults.jobs_lost_progress_s;
    s.fault_downtime_s = out.faults.downtime_s;
    s.fault_mttr_s = out.fault_mttr_s;
    const double span = end.get() * static_cast<double>(fed.domain_count());
    s.availability = span > 0.0 ? 1.0 - out.faults.downtime_s / span : 1.0;
  }
  out.engine.events_executed = engine.events_executed();
  out.engine.parallel_batches = engine.parallel_batches();
  out.engine.batched_events = engine.batched_events();

  // --- observability export -----------------------------------------------
  if (obs.profiler) {
    const sim::EngineTiming& timing = engine.timing();
    out.engine.serial_spine_ns = timing.serial_ns;
    out.engine.batch_exec_ns = timing.batch_exec_ns;
    out.engine.merge_barrier_ns = timing.merge_barrier_ns;
    out.profile = obs.profiler->report();
    append_engine_profile(out.profile, timing, engine.parallel_batches());
  }
  if (obs.metrics) {
    obs.metrics->gauge("run_sim_end_seconds", "Simulated end time of the run")
        .set(engine.now().get());
    obs.metrics->gauge("run_jobs_submitted", "Jobs submitted over the run")
        .set(static_cast<double>(fed.total_submitted()));
    obs.metrics->gauge("run_jobs_completed", "Jobs completed over the run")
        .set(static_cast<double>(fed.total_completed()));
    obs.metrics->gauge("engine_events_total", "Events the engine dispatched")
        .set(static_cast<double>(engine.events_executed()));
    obs.metrics
        ->gauge("engine_parallel_batches_total", "Parallel batches dispatched to the pool")
        .set(static_cast<double>(engine.parallel_batches()));
    // Control-event counters, from the stats each subsystem keeps.
    const auto count = [&](const char* name, const char* help, long value,
                           const std::string& labels = "") {
      obs.metrics->counter(name, help, labels).inc(static_cast<std::uint64_t>(value));
    };
    long routed_total = 0;
    for (long n : routed) routed_total += n;
    count("federation_routed_jobs_total", "Jobs routed to any domain", routed_total);
    for (std::size_t i = 0; i < fed.domain_count(); ++i) {
      const std::string label = obs::prometheus_label("domain", fed.domain(i).name());
      const core::PlacementController& ctrl = fed.domain(i).controller();
      count("controller_cycles_total", "Control cycles evaluated", ctrl.cycles_run(), label);
      count("controller_missed_cycles_total", "Cycles skipped while offline (blackout)",
            ctrl.missed_cycles(), label);
      if (!power_mgrs.empty()) {
        const power::PowerStats& ps = power_mgrs[i]->stats();
        count("power_parks_total", "Node park transitions begun", ps.parks, label);
        count("power_wakes_total", "Node wake transitions begun", ps.wakes, label);
      }
    }
    if (migration_mgr) {
      count("migration_moves_started_total", "Cross-domain moves initiated", out.migration.started);
      count("migration_moves_completed_total", "Cross-domain moves attached at destination",
            out.migration.completed);
    }
    if (injector) {
      count("faults_injected_total", "Fault windows fired (not recoveries)",
            out.faults.windows_fired);
    }
    for (std::size_t i = 0; i < fed.domain_count(); ++i) {
      const cluster::Cluster& cl = fed.domain(i).world().cluster();
      if (!cl.classes().explicit_classes()) continue;
      const std::string domain_label = obs::prometheus_label("domain", fed.domain(i).name());
      const auto by_class = cl.placeable_capacity_by_class();
      for (std::size_t ci = 0; ci < by_class.size(); ++ci) {
        const auto& c = cl.classes().at(static_cast<cluster::ClassId>(ci));
        obs.metrics
            ->gauge("cluster_class_placeable_mhz", "Placeable CPU per machine class",
                    domain_label + "," + obs::prometheus_label("class", c.name))
            .set(by_class[ci].cpu.get());
      }
    }
  }
  export_observability(fs.obs, obs);
  return out;
}

}  // namespace heteroplace::scenario
