#include "scenario/config_loader.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "federation/router.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/fault_factory.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/power_factory.hpp"

namespace heteroplace::scenario {

namespace {

// --- the key table ------------------------------------------------------------
// walk() names every config key once, next to the member it sets. A
// visitor gives it a meaning: Reader loads (member = read(key, member), so
// a key's default is whatever the struct holds when the walk reaches it),
// Writer dumps (and lists the keys). Per-prefix families go through
// v.indexed (a count key, elements <prefix><i>.*) or v.named (a name-list
// key, elements <prefix><name>.*); `make` builds an element's defaults and
// the element walk takes the visitor as its first argument.

template <typename V, typename C>
void walk_constraint(V& v, const std::string& p, C& c) {
  v(p + "arch", c.arch);
  v(p + "accel", c.accel);
  v(p + "min_core_mhz", c.min_core_mhz);
}

template <typename V, typename D>
void walk_domain(V& v, const std::string& p, D& d) {
  v(p + "name", d.name);
  v(p + "nodes", d.cluster.nodes);
  v(p + "cpu_per_node_mhz", d.cluster.cpu_per_node_mhz);
  v(p + "mem_per_node_mb", d.cluster.mem_per_node_mb);
  for (auto& pool : d.cluster.classes) v(p + "class." + pool.klass.name + ".count", pool.count);
  v(p + "first_cycle_at_s", d.first_cycle_at_s);
  v(p + "power_cap_w", d.power_cap_w);
}

template <typename V, typename S>
void walk(V& v, S& s) {
  v("name", s.name);
  v("seed", s.seed);
  v("horizon_s", s.horizon_s);
  v("sample_interval_s", s.sample_interval_s);
  v("engine.threads", s.engine_threads);

  v("nodes", s.cluster.nodes);
  v("cpu_per_node_mhz", s.cluster.cpu_per_node_mhz);
  v("mem_per_node_mb", s.cluster.mem_per_node_mb);
  v.named(
      "classes", "class.", s.cluster.classes, [](const auto& pool) { return pool.klass.name; },
      [](const std::string& name) { ClassPoolSpec pool; pool.klass.name = name; return pool; },
      [](auto& w, const std::string& p, auto& pool) {
        w(p + "arch", pool.klass.arch);
        w(p + "cores", pool.klass.cores);
        w(p + "core_mhz", pool.klass.core_mhz);
        w(p + "mem_mb", pool.klass.mem_mb);
        w(p + "speed_factor", pool.klass.speed_factor);
        w(p + "accel", pool.klass.accel);
        w(p + "count", pool.count);
      });

  v("cycle_s", s.controller.cycle_s);
  auto& lat = s.controller.latencies;
  v("latency.start_job", lat.start_job);
  v("latency.suspend", lat.suspend_job);
  v("latency.resume", lat.resume_job);
  v("latency.migrate", lat.migrate_job);
  v("latency.start_instance", lat.start_instance);
  auto& sol = s.controller.solver;
  v("solver.allow_migration", sol.allow_migration);
  v("solver.work_conserving", sol.work_conserving);
  v("solver.protect_completion_horizon_s", sol.protect_completion_horizon_s);
  v("solver.instance_capacity_factor", sol.instance_capacity_factor);

  auto& jobs = s.jobs;
  v("jobs.count", jobs.count);
  v("jobs.mean_interarrival_s", jobs.mean_interarrival_s);
  v("jobs.tail_count", jobs.tail_count);
  v("jobs.tail_mean_interarrival_s", jobs.tail_mean_interarrival_s);
  v("jobs.work_mhz_s", jobs.tmpl.work);
  v("jobs.work_cv", jobs.tmpl.work_cv);
  v("jobs.max_speed_mhz", jobs.tmpl.max_speed);
  v("jobs.memory_mb", jobs.tmpl.memory);
  v("jobs.goal_stretch", jobs.tmpl.goal_stretch);
  v("jobs.importance", jobs.tmpl.importance);
  v("jobs.utility_shape", jobs.utility_shape);
  walk_constraint(v, "jobs.constraint.", jobs.tmpl.constraint);

  v.indexed(
      "apps", "app.", 0, 64, s.apps,
      [&s](int i, int n) {
        TxAppScenario app = section3_scenario().apps.front();
        app.spec.id = util::AppId{static_cast<util::AppId::underlying_type>(i)};
        app.spec.name = n == 1 ? "web" : "app" + std::to_string(i);
        app.spec.max_instances = s.cluster.total_nodes();
        app.spec.max_cpu_per_instance = util::CpuMhz{s.cluster.max_node_cpu_mhz()};
        return app;
      },
      [](auto& w, const std::string& p, auto& app) {
        w(p + "name", app.spec.name);
        w(p + "lambda", app.trace);
        w(p + "rt_goal_s", app.spec.rt_goal);
        w(p + "service_demand_mhz_s", app.spec.service_demand);
        w(p + "importance", app.spec.importance);
        w(p + "instance_memory_mb", app.spec.instance_memory);
        w(p + "min_instances", app.spec.min_instances);
        w(p + "max_instances", app.spec.max_instances);
        w(p + "utility_cap", app.spec.utility_cap);
        w(p + "max_utilization", app.spec.max_utilization);
        w(p + "throughput_exponent", app.spec.throughput_exponent);
        walk_constraint(w, p + "constraint.", app.spec.constraint);
      });

  auto& pw = s.power;
  v("power.enabled", pw.enabled);
  v("power.policy", pw.policy);
  v("power.check_interval_s", pw.check_interval_s);
  v("power.idle_timeout_s", pw.idle_timeout_s);
  v("power.headroom_factor", pw.headroom_factor);
  v("power.min_active_nodes", pw.min_active_nodes);
  v("power.cap_w", pw.cap_w);
  v("power.park_state", pw.park_state);
  v("power.active_w", pw.active_w);
  v("power.standby_w", pw.standby_w);
  v("power.off_w", pw.off_w);
  v("power.park_latency_s", pw.park_latency_s);
  v("power.wake_latency_s", pw.wake_latency_s);
  v("power.pstates", pw.pstates);

  auto& ft = s.faults;
  v("fault.enabled", ft.enabled);
  v("fault.seed", ft.seed);
  v("fault.until_s", ft.until_s);
  v("fault.checkpoint_interval_s", ft.checkpoint_interval_s);
  v("fault.max_concurrent_repairs", ft.max_concurrent_repairs);
  v("fault.node_mttf_s", ft.node_mttf_s);
  v("fault.node_mttr_s", ft.node_mttr_s);
  v("fault.link_mttf_s", ft.link_mttf_s);
  v("fault.link_mttr_s", ft.link_mttr_s);
  v("fault.domain_mttf_s", ft.domain_mttf_s);
  v("fault.domain_mttr_s", ft.domain_mttr_s);
  v.indexed(
      "fault.events", "fault.event.", 0, 4096, ft.events,
      [](int, int) { return FaultEventSpec{}; },
      [](auto& w, const std::string& p, auto& e) {
        w(p + "kind", e.kind);
        w(p + "domain", e.domain);  // link-down events may spell it `from`
        w(p + "node", e.node);
        w(p + "to", e.to);
        w(p + "at_s", e.at_s);
        w(p + "duration_s", e.duration_s);
        w(p + "severity", e.severity);
      });

  auto& ob = s.obs;
  v("obs.trace", ob.trace);
  v("obs.trace_path", ob.trace_path);
  v("obs.trace_ring_capacity", ob.trace_ring_capacity);
  v("obs.trace_engine", ob.trace_engine);
  v("obs.metrics_path", ob.metrics_path);
  v("obs.metrics_json_path", ob.metrics_json_path);
  v("obs.profile", ob.profile);
  v("obs.audit", ob.audit);
  v("obs.audit_path", ob.audit_path);
  v("obs.audit_ring_capacity", ob.audit_ring_capacity);
  v("obs.sla_report_path", ob.sla_report_path);
  v("obs.sla_report_csv_path", ob.sla_report_csv_path);
  v.named(
      "slos", "slo.", s.slos, [](const auto& slo) { return slo.app; },
      [](const std::string& name) { obs::SloSpec slo; slo.app = name; return slo; },
      [](auto& w, const std::string& p, auto& slo) {
        w(p + "target", slo.target);
        w(p + "long_window_s", slo.long_window_s);
        w(p + "short_window_s", slo.short_window_s);
        w(p + "burn_threshold", slo.burn_threshold);
      });

  v.indexed(
      "domains", "domain.", 1, 4096, s.domains,
      [&s](int i, int n) { return domain_share(s.cluster, i, n); },
      [](auto& w, const std::string& p, auto& d) { walk_domain(w, p, d); });
  v("router", s.router);

  auto& m = s.migration;
  v("migration.enabled", m.enabled);
  v("migration.policy", m.policy);
  v("migration.check_interval_s", m.check_interval_s);
  v("migration.max_moves_per_tick", m.max_moves_per_tick);
  v("migration.high_watermark", m.high_watermark);
  v("migration.low_watermark", m.low_watermark);
  v("migration.link_mode", m.link_mode);
  v("migration.selection", m.selection);
  v("migration.max_queued_transfers", m.max_queued_transfers);
  v("migration.max_transfer_retries", m.max_transfer_retries);
  v("migration.retry_backoff_s", m.retry_backoff_s);
  v("migration.retry_backoff_max_s", m.retry_backoff_max_s);
  v("migration.rescore_queued_transfers", m.rescore_queued_transfers);
  v("migration.align_attach", m.align_attach);
  v("migration.default_bandwidth_mb_per_s", m.default_bandwidth_mb_per_s);
  v("migration.default_latency_s", m.default_latency_s);
  // Sparse families: -1 = keep the model default (see LinkSpec). The
  // loader finds which entries exist from the keys present.
  for (auto& link : m.links) {
    const std::string pair = std::to_string(link.from) + "." + std::to_string(link.to);
    v("bandwidth." + pair, link.bandwidth_mb_per_s);
    v("link_latency." + pair, link.latency_s);
  }
  for (auto& uplink : m.uplinks) {
    v("uplink_bandwidth." + std::to_string(uplink.domain), uplink.bandwidth_mb_per_s);
  }
}

/// What an empty config loads to.
Scenario config_defaults() {
  Scenario s = section3_scenario();
  s.name = "custom";
  return s;
}

template <typename Q>
concept UnitQuantity = std::is_base_of_v<util::Quantity<Q>, Q>;

/// Loads: member = read(key, member). Tracks the keys it reads so unknown
/// keys can be rejected.
class Reader {
 public:
  explicit Reader(const util::Config& cfg) {
    // fault.event.<i>.from is the link-down spelling of .domain; keys()
    // is sorted, so a .domain key is always copied before its .from.
    for (const std::string& key : cfg.keys()) {
      std::string canonical = key;
      if (key.starts_with("fault.event.") && key.ends_with(".from")) {
        canonical.replace(key.size() - 4, 4, "domain");
        if (cfg_.has(canonical)) {
          throw util::ConfigError(canonical + " and " + key + " are both set; keep one");
        }
      }
      cfg_.set(canonical, *cfg.raw(key));
    }
  }

  void operator()(const std::string& key, double& v) { v = cfg_.get_double(use(key), v); }
  void operator()(const std::string& key, bool& v) { v = cfg_.get_bool(use(key), v); }
  void operator()(const std::string& key, std::string& v) { v = cfg_.get_string(use(key), v); }
  template <std::signed_integral I>
  void operator()(const std::string& key, I& v) {
    v = static_cast<I>(cfg_.get_int(use(key), v));
  }
  template <std::unsigned_integral U>
  void operator()(const std::string& key, U& v) {
    const long long x = cfg_.get_int(use(key), static_cast<long long>(v));
    if (x < 0) throw util::ConfigError(key + ": must be nonnegative");
    v = static_cast<U>(x);
  }
  template <UnitQuantity Q>
  void operator()(const std::string& key, Q& q) {
    q = Q{cfg_.get_double(use(key), q.get())};
  }
  void operator()(const std::string& key, std::vector<std::string>& tags) {
    if (has(key)) tags = parse_tag_list(cfg_.get_string(use(key), ""), key);
  }
  void operator()(const std::string& key, workload::DemandTrace& trace) {
    if (has(key)) trace = workload::DemandTrace{cfg_.get_double(use(key), 0.0)};
  }

  template <typename T, typename Make, typename Walk>
  void indexed(const std::string& key, const std::string& prefix, long long lo, long long hi,
               std::vector<T>& items, Make make, Walk walk) {
    const long long n =
        cfg_.get_int(use(key), std::max(lo, static_cast<long long>(items.size())));
    if (n < lo || n > hi) {
      throw util::ConfigError(key + ": out of range [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
    }
    items.clear();
    for (int i = 0; i < static_cast<int>(n); ++i) {
      items.push_back(make(i, static_cast<int>(n)));
      walk(*this, prefix + std::to_string(i) + ".", items.back());
    }
  }

  template <typename T, typename Name, typename Make, typename Walk>
  void named(const std::string& key, const std::string& prefix, std::vector<T>& items,
             Name name_of, Make make, Walk walk) {
    std::vector<std::string> names;
    for (const T& item : items) names.push_back(name_of(item));
    (*this)(key, names);
    items.clear();
    for (const std::string& name : names) {
      items.push_back(make(name));
      walk(*this, prefix + name + ".", items.back());
    }
  }

  [[nodiscard]] bool has(const std::string& key) const { return cfg_.has(key); }
  [[nodiscard]] std::vector<std::string> keys() const { return cfg_.keys(); }

  void reject_unknown() const {
    for (const auto& key : cfg_.keys()) {
      if (used_.count(key) == 0) {
        throw util::ConfigError("unknown scenario config key: '" + key + "'");
      }
    }
  }

 private:
  const std::string& use(const std::string& key) { return *used_.insert(key).first; }

  util::Config cfg_;
  std::set<std::string> used_;
};

/// Dumps: one `key = value` line per visited member.
class Writer {
 public:
  void operator()(const std::string& key, double v) {
    // The shortest text that reads back to exactly `v`.
    char buf[32];
    put(key, std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr));
  }
  void operator()(const std::string& key, bool v) { put(key, v ? "true" : "false"); }
  void operator()(const std::string& key, const std::string& v) {
    const auto blank = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
    if (v.find_first_of("#\n") != std::string::npos ||
        (!v.empty() && (blank(v.front()) || blank(v.back())))) {
      throw util::ConfigError(key + ": '" + v + "' cannot be written as a config value");
    }
    put(key, v);
  }
  template <std::integral I>
  void operator()(const std::string& key, I v) {
    put(key, std::to_string(v));
  }
  template <UnitQuantity Q>
  void operator()(const std::string& key, const Q& q) {
    (*this)(key, q.get());
  }
  void operator()(const std::string& key, const std::vector<std::string>& tags) {
    std::string csv;
    for (const auto& tag : tags) csv += (csv.empty() ? "" : ",") + tag;
    (*this)(key, csv);
  }
  void operator()(const std::string& key, const workload::DemandTrace& trace) {
    const auto times = trace.change_times();
    if (times.size() != 1 || times.front().get() != 0.0) {
      throw util::ConfigError(key + ": a time-varying demand trace has no config key");
    }
    (*this)(key, trace.rate_at(util::Seconds{0.0}));
  }

  template <typename T, typename Make, typename Walk>
  void indexed(const std::string& key, const std::string& prefix, long long lo, long long,
               const std::vector<T>& items, Make, Walk walk) {
    (*this)(key, std::max(lo, static_cast<long long>(items.size())));
    for (std::size_t i = 0; i < items.size(); ++i) {
      walk(*this, prefix + std::to_string(i) + ".", items[i]);
    }
  }

  template <typename T, typename Name, typename Make, typename Walk>
  void named(const std::string& key, const std::string& prefix, const std::vector<T>& items,
             Name name_of, Make, Walk walk) {
    std::vector<std::string> names;
    for (const T& item : items) names.push_back(name_of(item));
    (*this)(key, names);
    for (const T& item : items) walk(*this, prefix + name_of(item) + ".", item);
  }

  std::vector<std::pair<std::string, std::string>> lines;

 private:
  void put(const std::string& key, std::string value) { lines.emplace_back(key, std::move(value)); }
};

/// Keys that have no effect given the rest of `s`, each with the reason.
/// The loader rejects them when set; the dump leaves them out.
std::vector<std::pair<std::string, std::string>> inert_keys(const Scenario& s) {
  std::vector<std::pair<std::string, std::string>> out;
  if (s.cluster.heterogeneous()) {
    for (const std::string key : {"nodes", "cpu_per_node_mhz", "mem_per_node_mb"}) {
      out.emplace_back(key, "has no effect with explicit machine classes; size each pool via "
                            "class.<name>.count");
      for (std::size_t i = 0; i < s.domains.size(); ++i) {
        const std::string p = "domain." + std::to_string(i) + ".";
        out.emplace_back(p + key, "has no effect with explicit machine classes; use " + p +
                                      "class.<name>.count");
      }
    }
  }
  if (!s.obs.trace_enabled()) {
    for (const char* key : {"obs.trace_path", "obs.trace_ring_capacity", "obs.trace_engine"}) {
      out.emplace_back(key, "has no effect with obs.trace=off");
    }
  } else if (s.obs.trace != "ring") {
    out.emplace_back("obs.trace_ring_capacity", "has no effect with obs.trace=" + s.obs.trace);
  }
  if (!s.obs.audit_enabled()) {
    for (const char* key : {"obs.audit_path", "obs.audit_ring_capacity"}) {
      out.emplace_back(key, "has no effect with obs.audit=off");
    }
  }
  return out;
}

}  // namespace

Scenario scenario_from_config(const util::Config& cfg) {
  Reader r(cfg);
  Scenario s = config_defaults();
  // Which link and uplink entries exist is read off the keys present, so
  // the cost does not grow with the square of the domain count. A key
  // whose indices are not canonical decimals ("01", "+1", "x") stays
  // unread, and reject_unknown names it.
  const std::regex link_key(R"((bandwidth|link_latency)\.(0|[1-9]\d{0,8})\.(0|[1-9]\d{0,8}))");
  const std::regex uplink_key(R"(uplink_bandwidth\.(0|[1-9]\d{0,8}))");
  std::map<std::pair<std::size_t, std::size_t>, LinkSpec> links;
  std::map<std::size_t, UplinkSpec> uplinks;
  for (const std::string& key : r.keys()) {
    std::smatch m;
    if (std::regex_match(key, m, link_key)) {
      const std::size_t from = std::stoul(m[2]);
      const std::size_t to = std::stoul(m[3]);
      links.try_emplace({from, to}, LinkSpec{from, to});
    } else if (std::regex_match(key, m, uplink_key)) {
      uplinks.try_emplace(std::stoul(m[1]), UplinkSpec{std::stoul(m[1])});
    }
  }
  for (const auto& entry : links) s.migration.links.push_back(entry.second);
  for (const auto& entry : uplinks) s.migration.uplinks.push_back(entry.second);
  walk(r, s);

  // --- cross-key rules ----------------------------------------------------------
  for (const auto& [key, why] : inert_keys(s)) {
    if (r.has(key)) throw util::ConfigError(key + " " + why);
  }
  if (s.engine_threads < 1) throw util::ConfigError("engine.threads: must be >= 1");
  validate_class_pools(s.cluster);
  validate_power_spec(s.power);
  validate_obs_spec(s.obs);
  for (const obs::SloSpec& slo : s.slos) {
    const bool known =
        slo.app == "jobs" || std::any_of(s.apps.begin(), s.apps.end(), [&](const auto& app) {
          return app.spec.name == slo.app;
        });
    if (!known) {
      throw util::ConfigError("slos: '" + slo.app +
                              "' is neither a tx app name nor the literal 'jobs'");
    }
    try {
      obs::AlertEngine().add_slo(slo);
    } catch (const std::invalid_argument& e) {
      throw util::ConfigError("slo." + slo.app + ".*: " + e.what());
    }
  }
  try {
    (void)federation::make_router(s.router);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("router: ") + e.what());
  }

  // Domains: overrides apply before the positivity check, so "2 nodes,
  // 4 domains, 1 node each by override" is valid.
  std::vector<const ClusterSpec*> domain_clusters;
  std::vector<std::size_t> nodes_per_domain;
  for (std::size_t i = 0; i < s.domains.size(); ++i) {
    const DomainSpec& d = s.domains[i];
    const std::string p = "domain." + std::to_string(i) + ".";
    for (const ClassPoolSpec& pool : d.cluster.classes) {
      if (pool.count < 0) {
        throw util::ConfigError(p + "class." + pool.klass.name + ".count: must be nonnegative");
      }
    }
    if (d.cluster.total_nodes() < 1) {
      throw util::ConfigError(p + (d.cluster.heterogeneous() ? "class.<name>.count: domain has "
                                                               "no nodes"
                                                             : "nodes: must be positive"));
    }
    if (r.has(p + "power_cap_w") && d.power_cap_w < 0.0) {
      throw util::ConfigError(p + "power_cap_w: must be nonnegative (0 = uncapped)");
    }
    domain_clusters.push_back(&d.cluster);
    nodes_per_domain.push_back(static_cast<std::size_t>(d.cluster.total_nodes()));
  }
  validate_migration_spec(s.migration, s.domains.size());
  // A constraint is satisfiable if any domain kept an admitting pool.
  validate_constraint(s.jobs.tmpl.constraint, domain_clusters, "jobs.constraint");
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    validate_constraint(s.apps[i].spec.constraint, domain_clusters,
                        "app." + std::to_string(i) + ".constraint");
  }
  validate_fault_spec(s.faults, nodes_per_domain, s.migration.enabled, s.horizon_s);
  r.reject_unknown();
  return s;
}

std::string scenario_to_config(const Scenario& s) {
  if (!s.weight_events.empty()) {
    throw util::ConfigError("weight_events: scheduled weight changes have no config key");
  }
  Writer w;
  walk(w, s);
  // Left out: inert keys, and keys holding the value that loading without
  // them gives (the even domain split, unset link components).
  std::set<std::string> skip;
  for (const auto& entry : inert_keys(s)) skip.insert(entry.first);
  Writer implied;
  const int n = static_cast<int>(s.domains.size());
  for (int i = 0; i < n; ++i) {
    const DomainSpec share = domain_share(s.cluster, i, n);
    walk_domain(implied, "domain." + std::to_string(i) + ".", share);
  }
  for (const LinkSpec& link : s.migration.links) {
    const std::string pair = std::to_string(link.from) + "." + std::to_string(link.to);
    implied("bandwidth." + pair, -1.0);
    implied("link_latency." + pair, -1.0);
  }
  const std::map<std::string, std::string> defaults(implied.lines.begin(), implied.lines.end());
  std::ostringstream os;
  for (const auto& [key, value] : w.lines) {
    const auto implied_value = defaults.find(key);
    const bool implied_by_default =
        implied_value != defaults.end() && implied_value->second == value;
    if (skip.count(key) == 0 && !implied_by_default) {
      os << key << " = " << value << "\n";
    }
  }
  return os.str();
}

std::vector<std::string> scenario_config_keys() {
  // One element per family; index segments print as <i>, then <j>.
  Scenario s = config_defaults();
  s.cluster.classes.resize(1);
  s.cluster.classes[0].klass.name = "<name>";
  s.slos.resize(1);
  s.slos[0].app = "<name>";
  s.faults.events.resize(1);
  s.domains = {domain_share(s.cluster, 0, 1)};
  s.migration.links.resize(1);
  s.migration.uplinks.resize(1);
  Writer w;
  walk(w, s);
  std::vector<std::string> keys;
  for (const auto& line : w.lines) {
    std::string key;
    std::istringstream parts(line.first);
    for (std::string part; std::getline(parts, part, '.');) {
      if (part.find_first_not_of("0123456789") == std::string::npos) {
        part = key.find("<i>") == std::string::npos ? "<i>" : "<j>";
      }
      key += (key.empty() ? "" : ".") + part;
    }
    keys.push_back(key);
  }
  return keys;
}

}  // namespace heteroplace::scenario
