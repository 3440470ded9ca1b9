#include "scenario/config_loader.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "federation/router.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/fault_factory.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/power_factory.hpp"

namespace heteroplace::scenario {

namespace {

/// Track consumed keys so unknown keys can be rejected.
class KeyedConfig {
 public:
  explicit KeyedConfig(const util::Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] double num(const std::string& key, double def) {
    used_.insert(key);
    return cfg_.get_double(key, def);
  }
  [[nodiscard]] long long integer(const std::string& key, long long def) {
    used_.insert(key);
    return cfg_.get_int(key, def);
  }
  [[nodiscard]] bool boolean(const std::string& key, bool def) {
    used_.insert(key);
    return cfg_.get_bool(key, def);
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& def) {
    used_.insert(key);
    return cfg_.get_string(key, def);
  }
  [[nodiscard]] bool has(const std::string& key) const { return cfg_.has(key); }
  /// Keys present under `prefix`; reading one marks it used as usual.
  [[nodiscard]] std::vector<std::string> keys_with_prefix(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& key : cfg_.keys()) {
      if (key.rfind(prefix, 0) == 0) out.push_back(key);
    }
    return out;
  }

  void reject_unknown() const {
    for (const auto& key : cfg_.keys()) {
      if (used_.count(key) == 0) {
        throw util::ConfigError("unknown scenario config key: '" + key + "'");
      }
    }
  }

 private:
  const util::Config& cfg_;
  std::set<std::string> used_;
};

Scenario scenario_from_keyed(KeyedConfig& k);

/// A canonical decimal domain index ("0", "17"; not "", "01" or "+1");
/// nullopt otherwise, so the key stays unread and reject_unknown names it.
std::optional<std::size_t> parse_index(const std::string& s) {
  if (s.empty() || s.size() > 9 || s.find_first_not_of("0123456789") != std::string::npos ||
      (s.size() > 1 && s[0] == '0')) {
    return std::nullopt;
  }
  return std::stoul(s);
}

}  // namespace

Scenario scenario_from_config(const util::Config& cfg) {
  KeyedConfig k(cfg);
  Scenario s = scenario_from_keyed(k);
  validate_constraint(s.jobs.tmpl.constraint, {&s.cluster}, "jobs.constraint");
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    validate_constraint(s.apps[i].spec.constraint, {&s.cluster},
                        "app." + std::to_string(i) + ".constraint");
  }
  // Single-cluster runs cannot express link or domain faults; fail at
  // load time, not mid-run.
  validate_fault_spec(s.faults, {static_cast<std::size_t>(s.cluster.total_nodes())},
                      /*federated=*/false, /*migration_enabled=*/false, s.horizon_s);
  k.reject_unknown();
  return s;
}

FederatedScenario federated_scenario_from_config(const util::Config& cfg) {
  KeyedConfig k(cfg);
  const Scenario base = scenario_from_keyed(k);

  const auto n_domains = k.integer("domains", 1);
  if (n_domains < 1 || n_domains > 4096) {
    throw util::ConfigError("domains: out of range [1, 4096]");
  }

  FederatedScenario fs = federated_shell(base);
  fs.router = k.str("router", "least-loaded");
  try {
    (void)federation::make_router(fs.router);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("router: ") + e.what());
  }

  // Default split of the global pool is even (remainder to the earliest
  // domains) and may leave later domains with zero nodes; explicit
  // domain.<i>.nodes overrides apply before the positivity check so
  // "2 nodes, 4 domains, 1 node each by override" is a valid config.
  // Heterogeneous specs split each class pool the same way, overridden
  // per-pool by domain.<i>.class.<name>.count (0 = none of that class
  // here, so a GPU pool can live in one domain only).
  const int base_nodes = base.cluster.nodes / static_cast<int>(n_domains);
  const int remainder = base.cluster.nodes % static_cast<int>(n_domains);
  for (long long i = 0; i < n_domains; ++i) {
    const std::string p = "domain." + std::to_string(i) + ".";
    DomainSpec d;
    d.name = "dc" + std::to_string(i);
    d.cluster = base.cluster;
    d.name = k.str(p + "name", d.name);
    if (base.cluster.heterogeneous()) {
      for (const char* key : {"nodes", "cpu_per_node_mhz", "mem_per_node_mb"}) {
        if (k.has(p + key)) {
          throw util::ConfigError(p + key +
                                  " has no effect with explicit machine classes; use " + p +
                                  "class.<name>.count");
        }
      }
      for (ClassPoolSpec& pool : d.cluster.classes) {
        const int pool_base = pool.count / static_cast<int>(n_domains);
        const int pool_rem = pool.count % static_cast<int>(n_domains);
        const std::string ckey = p + "class." + pool.klass.name + ".count";
        const int count = static_cast<int>(
            k.integer(ckey, pool_base + (i < pool_rem ? 1 : 0)));
        if (count < 0) throw util::ConfigError(ckey + ": must be nonnegative");
        pool.count = count;
      }
      if (d.cluster.total_nodes() < 1) {
        throw util::ConfigError(p + "class.<name>.count: domain has no nodes");
      }
    } else {
      d.cluster.nodes = base_nodes + (i < remainder ? 1 : 0);
      d.cluster.nodes = static_cast<int>(k.integer(p + "nodes", d.cluster.nodes));
      if (d.cluster.nodes < 1) throw util::ConfigError(p + "nodes: must be positive");
      d.cluster.cpu_per_node_mhz = k.num(p + "cpu_per_node_mhz", d.cluster.cpu_per_node_mhz);
      d.cluster.mem_per_node_mb = k.num(p + "mem_per_node_mb", d.cluster.mem_per_node_mb);
    }
    d.first_cycle_at_s = k.num(p + "first_cycle_at_s", d.first_cycle_at_s);
    d.power_cap_w = k.num(p + "power_cap_w", d.power_cap_w);
    if (k.has(p + "power_cap_w") && d.power_cap_w < 0.0) {
      throw util::ConfigError(p + "power_cap_w: must be nonnegative (0 = uncapped)");
    }
    fs.domains.push_back(std::move(d));
  }

  // --- live migration ---------------------------------------------------------
  // Read here, checked by validate_migration_spec: a loaded config and an
  // equivalent hand-built spec fail with the same message.
  MigrationSpec& m = fs.migration;
  m.enabled = k.boolean("migration.enabled", m.enabled);
  m.policy = k.str("migration.policy", m.policy);
  m.check_interval_s = k.num("migration.check_interval_s", m.check_interval_s);
  m.max_moves_per_tick =
      static_cast<int>(k.integer("migration.max_moves_per_tick", m.max_moves_per_tick));
  m.high_watermark = k.num("migration.high_watermark", m.high_watermark);
  m.low_watermark = k.num("migration.low_watermark", m.low_watermark);
  m.link_mode = k.str("migration.link_mode", m.link_mode);
  m.selection = k.str("migration.selection", m.selection);
  m.max_queued_transfers =
      static_cast<int>(k.integer("migration.max_queued_transfers", m.max_queued_transfers));
  m.max_transfer_retries =
      static_cast<int>(k.integer("migration.max_transfer_retries", m.max_transfer_retries));
  m.retry_backoff_s = k.num("migration.retry_backoff_s", m.retry_backoff_s);
  m.retry_backoff_max_s = k.num("migration.retry_backoff_max_s", m.retry_backoff_max_s);
  m.rescore_queued_transfers =
      k.boolean("migration.rescore_queued_transfers", m.rescore_queued_transfers);
  m.align_attach = k.boolean("migration.align_attach", m.align_attach);
  m.default_bandwidth_mb_per_s =
      k.num("migration.default_bandwidth_mb_per_s", m.default_bandwidth_mb_per_s);
  m.default_latency_s = k.num("migration.default_latency_s", m.default_latency_s);
  // Sparse link overrides: bandwidth.<i>.<j> (MB/s) and link_latency.<i>.<j>
  // (s) per ordered domain pair, uplink_bandwidth.<i> (MB/s) per shared
  // uplink pool. Only keys actually present are visited, so the cost does
  // not grow with the square of the domain count.
  std::map<std::pair<std::size_t, std::size_t>, LinkSpec> links;
  for (const std::string field : {"bandwidth.", "link_latency."}) {
    for (const std::string& key : k.keys_with_prefix(field)) {
      const std::string pair = key.substr(field.size());
      const std::size_t dot = std::min(pair.find('.'), pair.size());
      const auto from = parse_index(pair.substr(0, dot));
      const auto to = parse_index(pair.substr(std::min(dot + 1, pair.size())));
      if (!from || !to) continue;
      LinkSpec& link = links[{*from, *to}];
      link.from = *from;
      link.to = *to;
      (field == "bandwidth." ? link.bandwidth_mb_per_s : link.latency_s) = k.num(key, -1.0);
    }
  }
  for (const auto& entry : links) m.links.push_back(entry.second);
  std::map<std::size_t, double> uplinks;
  const std::string uplink_field = "uplink_bandwidth.";
  for (const std::string& key : k.keys_with_prefix(uplink_field)) {
    if (const auto domain = parse_index(key.substr(uplink_field.size()))) {
      uplinks[*domain] = k.num(key, 0.0);
    }
  }
  for (const auto& [domain, bandwidth] : uplinks) m.uplinks.push_back({domain, bandwidth});
  validate_migration_spec(m, static_cast<std::size_t>(n_domains));

  {
    // A constraint is satisfiable if any domain kept an admitting pool
    // (per-domain count overrides may have moved pools around).
    std::vector<const ClusterSpec*> domain_clusters;
    for (const DomainSpec& d : fs.domains) domain_clusters.push_back(&d.cluster);
    validate_constraint(fs.jobs.tmpl.constraint, domain_clusters, "jobs.constraint");
    for (std::size_t i = 0; i < fs.apps.size(); ++i) {
      validate_constraint(fs.apps[i].spec.constraint, domain_clusters,
                          "app." + std::to_string(i) + ".constraint");
    }
  }

  {
    std::vector<std::size_t> nodes_per_domain;
    for (const DomainSpec& d : fs.domains) {
      nodes_per_domain.push_back(static_cast<std::size_t>(d.cluster.total_nodes()));
    }
    validate_fault_spec(fs.faults, nodes_per_domain, /*federated=*/true, fs.migration.enabled,
                        fs.horizon_s);
  }

  k.reject_unknown();
  return fs;
}

namespace {

Scenario scenario_from_keyed(KeyedConfig& k) {
  const Scenario defaults = section3_scenario();
  Scenario s;

  s.name = k.str("name", "custom");
  s.seed = static_cast<std::uint64_t>(k.integer("seed", static_cast<long long>(defaults.seed)));
  s.horizon_s = k.num("horizon_s", defaults.horizon_s);
  s.sample_interval_s = k.num("sample_interval_s", defaults.sample_interval_s);
  s.engine_threads = static_cast<int>(k.integer("engine.threads", defaults.engine_threads));
  if (s.engine_threads < 1) throw util::ConfigError("engine.threads: must be >= 1");

  s.cluster.nodes = static_cast<int>(k.integer("nodes", defaults.cluster.nodes));
  s.cluster.cpu_per_node_mhz = k.num("cpu_per_node_mhz", defaults.cluster.cpu_per_node_mhz);
  s.cluster.mem_per_node_mb = k.num("mem_per_node_mb", defaults.cluster.mem_per_node_mb);

  // --- machine classes --------------------------------------------------------
  // `classes = big,arm` names the pools; each pool is then described by
  // class.<name>.* keys. Scalar and pooled layouts are mutually
  // exclusive spellings of the cluster — mixing them is rejected rather
  // than guessed at.
  const std::vector<std::string> class_names =
      parse_tag_list(k.str("classes", ""), "classes");
  if (!class_names.empty()) {
    for (const char* key : {"nodes", "cpu_per_node_mhz", "mem_per_node_mb"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) +
                                " has no effect with explicit machine classes; "
                                "size each pool via class.<name>.count");
      }
    }
    for (const std::string& name : class_names) {
      const std::string p = "class." + name + ".";
      ClassPoolSpec pool;
      pool.klass.name = name;
      pool.klass.arch = k.str(p + "arch", "");
      pool.klass.cores = static_cast<int>(k.integer(p + "cores", 0));
      pool.klass.core_mhz = k.num(p + "core_mhz", 0.0);
      pool.klass.mem_mb = k.num(p + "mem_mb", 0.0);
      pool.klass.speed_factor = k.num(p + "speed_factor", 1.0);
      pool.klass.accel = parse_tag_list(k.str(p + "accel", ""), p + "accel");
      pool.count = static_cast<int>(k.integer(p + "count", 0));
      s.cluster.classes.push_back(std::move(pool));
    }
    validate_class_pools(s.cluster);
  }

  // Shared shape for jobs.constraint.* / app.<i>.constraint.* keys.
  // Satisfiability against the actual pools is checked by the caller —
  // the federated loader must test against per-domain class counts.
  auto parse_constraint = [&k](const std::string& p) {
    cluster::ConstraintSet c;
    c.arch = k.str(p + "arch", "");
    c.accel = parse_tag_list(k.str(p + "accel", ""), p + "accel");
    c.min_core_mhz = k.num(p + "min_core_mhz", 0.0);
    if (c.min_core_mhz < 0.0) {
      throw util::ConfigError(p + "min_core_mhz: must be nonnegative");
    }
    return c;
  };

  s.controller.cycle_s = k.num("cycle_s", defaults.controller.cycle_s);
  auto& lat = s.controller.latencies;
  lat.start_job = util::Seconds{k.num("latency.start_job", lat.start_job.get())};
  lat.suspend_job = util::Seconds{k.num("latency.suspend", lat.suspend_job.get())};
  lat.resume_job = util::Seconds{k.num("latency.resume", lat.resume_job.get())};
  lat.migrate_job = util::Seconds{k.num("latency.migrate", lat.migrate_job.get())};
  lat.start_instance = util::Seconds{k.num("latency.start_instance", lat.start_instance.get())};

  auto& sol = s.controller.solver;
  sol.allow_migration = k.boolean("solver.allow_migration", sol.allow_migration);
  sol.work_conserving = k.boolean("solver.work_conserving", sol.work_conserving);
  sol.protect_completion_horizon_s =
      k.num("solver.protect_completion_horizon_s", sol.protect_completion_horizon_s);
  sol.instance_capacity_factor =
      k.num("solver.instance_capacity_factor", sol.instance_capacity_factor);

  s.jobs.count = k.integer("jobs.count", defaults.jobs.count);
  s.jobs.mean_interarrival_s =
      k.num("jobs.mean_interarrival_s", defaults.jobs.mean_interarrival_s);
  s.jobs.tail_count = k.integer("jobs.tail_count", 0);
  s.jobs.tail_mean_interarrival_s = k.num("jobs.tail_mean_interarrival_s", 0.0);
  s.jobs.tmpl.work = util::MhzSeconds{k.num("jobs.work_mhz_s", defaults.jobs.tmpl.work.get())};
  s.jobs.tmpl.work_cv = k.num("jobs.work_cv", defaults.jobs.tmpl.work_cv);
  s.jobs.tmpl.max_speed =
      util::CpuMhz{k.num("jobs.max_speed_mhz", defaults.jobs.tmpl.max_speed.get())};
  s.jobs.tmpl.memory = util::MemMb{k.num("jobs.memory_mb", defaults.jobs.tmpl.memory.get())};
  s.jobs.tmpl.goal_stretch = k.num("jobs.goal_stretch", defaults.jobs.tmpl.goal_stretch);
  s.jobs.tmpl.importance = k.num("jobs.importance", defaults.jobs.tmpl.importance);
  s.jobs.utility_shape = k.str("jobs.utility_shape", defaults.jobs.utility_shape);
  s.jobs.tmpl.constraint = parse_constraint("jobs.constraint.");

  // --- power & energy ---------------------------------------------------------
  PowerSpec& pw = s.power;
  pw.enabled = k.boolean("power.enabled", pw.enabled);
  pw.policy = k.str("power.policy", pw.policy);
  pw.check_interval_s = k.num("power.check_interval_s", pw.check_interval_s);
  pw.idle_timeout_s = k.num("power.idle_timeout_s", pw.idle_timeout_s);
  pw.headroom_factor = k.num("power.headroom_factor", pw.headroom_factor);
  pw.min_active_nodes =
      static_cast<int>(k.integer("power.min_active_nodes", pw.min_active_nodes));
  pw.cap_w = k.num("power.cap_w", pw.cap_w);
  pw.park_state = k.str("power.park_state", pw.park_state);
  pw.active_w = k.num("power.active_w", pw.active_w);
  pw.standby_w = k.num("power.standby_w", pw.standby_w);
  pw.off_w = k.num("power.off_w", pw.off_w);
  pw.park_latency_s = k.num("power.park_latency_s", pw.park_latency_s);
  pw.wake_latency_s = k.num("power.wake_latency_s", pw.wake_latency_s);
  pw.pstates = static_cast<int>(k.integer("power.pstates", pw.pstates));
  validate_power_spec(pw);

  // --- fault injection --------------------------------------------------------
  FaultSpec& ft = s.faults;
  ft.enabled = k.boolean("fault.enabled", ft.enabled);
  ft.seed = static_cast<std::uint64_t>(k.integer("fault.seed", 0));
  ft.until_s = k.num("fault.until_s", ft.until_s);
  ft.checkpoint_interval_s = k.num("fault.checkpoint_interval_s", ft.checkpoint_interval_s);
  ft.max_concurrent_repairs = static_cast<int>(
      k.integer("fault.max_concurrent_repairs", ft.max_concurrent_repairs));
  ft.node_mttf_s = k.num("fault.node_mttf_s", ft.node_mttf_s);
  ft.node_mttr_s = k.num("fault.node_mttr_s", ft.node_mttr_s);
  ft.link_mttf_s = k.num("fault.link_mttf_s", ft.link_mttf_s);
  ft.link_mttr_s = k.num("fault.link_mttr_s", ft.link_mttr_s);
  ft.domain_mttf_s = k.num("fault.domain_mttf_s", ft.domain_mttf_s);
  ft.domain_mttr_s = k.num("fault.domain_mttr_s", ft.domain_mttr_s);
  const auto n_fault_events = k.integer("fault.events", 0);
  if (n_fault_events < 0 || n_fault_events > 4096) {
    throw util::ConfigError("fault.events: out of range [0, 4096]");
  }
  for (long long i = 0; i < n_fault_events; ++i) {
    const std::string p = "fault.event." + std::to_string(i) + ".";
    FaultEventSpec e;
    e.kind = k.str(p + "kind", e.kind);
    // Link events name their source "from"; the other kinds "domain".
    // Both spellings land in the same field; setting both is ambiguous.
    const bool has_domain = k.has(p + "domain");
    const bool has_from = k.has(p + "from");
    if (has_domain && has_from) {
      throw util::ConfigError(p + "domain and " + p + "from are both set; keep one");
    }
    const auto domain = k.integer(has_from ? p + "from" : p + "domain", 0);
    if (domain < 0) throw util::ConfigError(p + "domain: must be nonnegative");
    e.domain = static_cast<std::size_t>(domain);
    const auto node = k.integer(p + "node", 0);
    if (node < 0) throw util::ConfigError(p + "node: must be nonnegative");
    e.node = static_cast<std::size_t>(node);
    const auto to = k.integer(p + "to", 0);
    if (to < 0) throw util::ConfigError(p + "to: must be nonnegative");
    e.to = static_cast<std::size_t>(to);
    e.at_s = k.num(p + "at_s", e.at_s);
    e.duration_s = k.num(p + "duration_s", e.duration_s);
    e.severity = k.num(p + "severity", e.severity);
    ft.events.push_back(std::move(e));
  }

  // --- observability ----------------------------------------------------------
  ObsSpec& ob = s.obs;
  ob.trace = k.str("obs.trace", ob.trace);
  ob.trace_path = k.str("obs.trace_path", ob.trace_path);
  ob.trace_ring_capacity = static_cast<long>(
      k.integer("obs.trace_ring_capacity", static_cast<long long>(ob.trace_ring_capacity)));
  ob.trace_engine = k.boolean("obs.trace_engine", ob.trace_engine);
  ob.metrics_path = k.str("obs.metrics_path", ob.metrics_path);
  ob.metrics_json_path = k.str("obs.metrics_json_path", ob.metrics_json_path);
  ob.profile = k.boolean("obs.profile", ob.profile);
  if (!ob.trace_enabled()) {
    for (const char* key : {"obs.trace_path", "obs.trace_ring_capacity", "obs.trace_engine"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) + " has no effect with obs.trace=off");
      }
    }
  } else if (ob.trace != "ring" && k.has("obs.trace_ring_capacity")) {
    throw util::ConfigError("obs.trace_ring_capacity has no effect with obs.trace=" + ob.trace);
  }
  ob.audit = k.str("obs.audit", ob.audit);
  ob.audit_path = k.str("obs.audit_path", ob.audit_path);
  ob.audit_ring_capacity = static_cast<long>(
      k.integer("obs.audit_ring_capacity", static_cast<long long>(ob.audit_ring_capacity)));
  if (!ob.audit_enabled()) {
    for (const char* key : {"obs.audit_path", "obs.audit_ring_capacity"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) + " has no effect with obs.audit=off");
      }
    }
  }
  ob.sla_report_path = k.str("obs.sla_report_path", ob.sla_report_path);
  ob.sla_report_csv_path = k.str("obs.sla_report_csv_path", ob.sla_report_csv_path);
  validate_obs_spec(ob);

  const auto n_apps = k.integer("apps", 1);
  if (n_apps < 0 || n_apps > 64) throw util::ConfigError("apps: out of range [0, 64]");
  const TxAppScenario& app_defaults = defaults.apps.front();
  for (long long i = 0; i < n_apps; ++i) {
    const std::string p = "app." + std::to_string(i) + ".";
    TxAppScenario app;
    app.spec = app_defaults.spec;
    app.spec.id = util::AppId{static_cast<util::AppId::underlying_type>(i)};
    app.spec.name = k.str(p + "name", n_apps == 1 ? "web" : "app" + std::to_string(i));
    app.spec.rt_goal = util::Seconds{k.num(p + "rt_goal_s", app_defaults.spec.rt_goal.get())};
    app.spec.service_demand =
        k.num(p + "service_demand_mhz_s", app_defaults.spec.service_demand);
    app.spec.importance = k.num(p + "importance", 1.0);
    app.spec.instance_memory =
        util::MemMb{k.num(p + "instance_memory_mb", app_defaults.spec.instance_memory.get())};
    app.spec.min_instances =
        static_cast<int>(k.integer(p + "min_instances", app_defaults.spec.min_instances));
    app.spec.max_instances =
        static_cast<int>(k.integer(p + "max_instances", s.cluster.total_nodes()));
    app.spec.utility_cap = k.num(p + "utility_cap", app_defaults.spec.utility_cap);
    app.spec.max_utilization = k.num(p + "max_utilization", app_defaults.spec.max_utilization);
    app.spec.throughput_exponent =
        k.num(p + "throughput_exponent", app_defaults.spec.throughput_exponent);
    app.spec.max_cpu_per_instance = util::CpuMhz{s.cluster.max_node_cpu_mhz()};
    app.spec.constraint = parse_constraint(p + "constraint.");
    app.trace = workload::DemandTrace{k.num(p + "lambda", 24.0)};
    s.apps.push_back(std::move(app));
  }

  // --- SLOs & burn-rate alerting ---------------------------------------------
  // `slos = web,jobs` names the objectives; each is then described by
  // slo.<name>.* keys. A name must be a tx app's name or the literal
  // "jobs" (batch completion-ratio objective). Parsed after the apps so
  // the name check sees the real app list.
  const std::vector<std::string> slo_names = parse_tag_list(k.str("slos", ""), "slos");
  for (const std::string& name : slo_names) {
    const std::string p = "slo." + name + ".";
    if (name != "jobs") {
      bool known = false;
      for (const TxAppScenario& app : s.apps) known = known || app.spec.name == name;
      if (!known) {
        throw util::ConfigError("slos: '" + name +
                                "' is neither a tx app name nor the literal 'jobs'");
      }
    }
    obs::SloSpec slo;
    slo.app = name;
    slo.target = k.num(p + "target", slo.target);
    slo.long_window_s = k.num(p + "long_window_s", slo.long_window_s);
    slo.short_window_s = k.num(p + "short_window_s", slo.short_window_s);
    slo.burn_threshold = k.num(p + "burn_threshold", slo.burn_threshold);
    if (!(slo.target > 0.0 && slo.target < 1.0)) {
      throw util::ConfigError(p + "target: must be in (0, 1)");
    }
    if (slo.short_window_s <= 0.0 || slo.long_window_s < slo.short_window_s) {
      throw util::ConfigError(p + "long_window_s/short_window_s: need 0 < short <= long");
    }
    if (slo.burn_threshold <= 0.0) {
      throw util::ConfigError(p + "burn_threshold: must be positive");
    }
    s.slos.push_back(std::move(slo));
  }

  return s;
}

}  // namespace

std::string scenario_to_config(const Scenario& s) {
  std::ostringstream os;
  const auto join = [](const std::vector<std::string>& tags) {
    std::string out;
    for (const auto& t : tags) {
      if (!out.empty()) out += ",";
      out += t;
    }
    return out;
  };
  const auto emit_constraint = [&os](const std::string& p, const cluster::ConstraintSet& c,
                                     const auto& join_fn) {
    if (!c.arch.empty()) os << p << "arch = " << c.arch << "\n";
    if (!c.accel.empty()) os << p << "accel = " << join_fn(c.accel) << "\n";
    if (c.min_core_mhz > 0.0) os << p << "min_core_mhz = " << c.min_core_mhz << "\n";
  };
  os << "name = " << s.name << "\n";
  os << "seed = " << s.seed << "\n";
  os << "horizon_s = " << s.horizon_s << "\n";
  os << "sample_interval_s = " << s.sample_interval_s << "\n";
  if (s.cluster.heterogeneous()) {
    std::vector<std::string> names;
    for (const auto& pool : s.cluster.classes) names.push_back(pool.klass.name);
    os << "classes = " << join(names) << "\n";
    for (const auto& pool : s.cluster.classes) {
      const std::string p = "class." + pool.klass.name + ".";
      if (!pool.klass.arch.empty()) os << p << "arch = " << pool.klass.arch << "\n";
      os << p << "cores = " << pool.klass.cores << "\n";
      os << p << "core_mhz = " << pool.klass.core_mhz << "\n";
      os << p << "mem_mb = " << pool.klass.mem_mb << "\n";
      os << p << "speed_factor = " << pool.klass.speed_factor << "\n";
      if (!pool.klass.accel.empty()) os << p << "accel = " << join(pool.klass.accel) << "\n";
      os << p << "count = " << pool.count << "\n";
    }
  } else {
    os << "nodes = " << s.cluster.nodes << "\n";
    os << "cpu_per_node_mhz = " << s.cluster.cpu_per_node_mhz << "\n";
    os << "mem_per_node_mb = " << s.cluster.mem_per_node_mb << "\n";
  }
  os << "cycle_s = " << s.controller.cycle_s << "\n";
  os << "jobs.count = " << s.jobs.count << "\n";
  os << "jobs.mean_interarrival_s = " << s.jobs.mean_interarrival_s << "\n";
  os << "jobs.work_mhz_s = " << s.jobs.tmpl.work.get() << "\n";
  os << "jobs.work_cv = " << s.jobs.tmpl.work_cv << "\n";
  os << "jobs.max_speed_mhz = " << s.jobs.tmpl.max_speed.get() << "\n";
  os << "jobs.memory_mb = " << s.jobs.tmpl.memory.get() << "\n";
  os << "jobs.goal_stretch = " << s.jobs.tmpl.goal_stretch << "\n";
  os << "jobs.utility_shape = " << s.jobs.utility_shape << "\n";
  emit_constraint("jobs.constraint.", s.jobs.tmpl.constraint, join);
  os << "apps = " << s.apps.size() << "\n";
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    const auto& a = s.apps[i];
    const std::string p = "app." + std::to_string(i) + ".";
    os << p << "name = " << a.spec.name << "\n";
    os << p << "lambda = " << a.trace.rate_at(util::Seconds{0.0}) << "\n";
    os << p << "rt_goal_s = " << a.spec.rt_goal.get() << "\n";
    os << p << "service_demand_mhz_s = " << a.spec.service_demand << "\n";
    os << p << "importance = " << a.spec.importance << "\n";
    os << p << "instance_memory_mb = " << a.spec.instance_memory.get() << "\n";
    os << p << "min_instances = " << a.spec.min_instances << "\n";
    os << p << "max_instances = " << a.spec.max_instances << "\n";
    os << p << "utility_cap = " << a.spec.utility_cap << "\n";
    os << p << "max_utilization = " << a.spec.max_utilization << "\n";
    os << p << "throughput_exponent = " << a.spec.throughput_exponent << "\n";
    emit_constraint(p + "constraint.", a.spec.constraint, join);
  }
  return os.str();
}

}  // namespace heteroplace::scenario
