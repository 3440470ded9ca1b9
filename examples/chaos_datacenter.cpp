// A week of chaos: three controller domains run one shared workload
// stream while the fault injector crashes nodes (seeded MTTF/MTTR
// renewal processes), takes inter-domain links down mid-evacuation, and
// blacks out a whole domain for two hours. Crashed jobs fall back to
// their last periodic checkpoint and re-enter the queue; transfers
// killed on a dead link retry with capped exponential backoff; the
// blacked-out domain's demand fails over and its controller resyncs on
// recovery. SLA utility degrades gracefully instead of collapsing.
//
// The example is self-checking (CI smoke): it exits nonzero unless the
// run saw real availability loss, at least one successful transfer
// retry, and every crashed job either recovered or was accounted in
// jobs_lost_progress_s.
//
// Build & run:   ./build/chaos_datacenter
// Options:       --jobs=N --horizon=SECONDS --seed=N
//                --node_mttf=S --node_mttr=S --checkpoint=S
//                --trace=PATH (stream a Chrome trace-event JSON of the run;
//                open in Perfetto) --metrics=PATH (Prometheus text snapshot)
//                --sla_report=PATH (SLA attribution + alert JSON; a human
//                CSV lands next to it at PATH.csv)
//
// The run always carries two SLOs — 95% of web response-time samples
// under goal, and half the batch jobs on goal — so the SLA ledger's
// attribution-closure assertion (components sum exactly to each job's
// wall lifetime) runs in-binary on every completed job. With
// --sla_report the example re-reads its own report and further checks
// that a web burn-rate alert opened during the dc-east blackout and
// closed after recovery.

#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/trace_check.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/report.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;

  util::Config cfg;
  try {
    cfg = util::Config::from_args(argc, argv);
  } catch (const util::ConfigError& e) {
    std::cerr << "usage: chaos_datacenter [--jobs=N] [--horizon=S] [--seed=N]"
                 " [--node_mttf=S] [--node_mttr=S] [--checkpoint=S]"
                 " [--trace=PATH] [--metrics=PATH] [--sla_report=PATH]\n"
              << e.what() << "\n";
    return 1;
  }

  scenario::Scenario base = scenario::section3_scaled(0.4);  // 10 nodes total
  base.name = "chaos-datacenter";
  base.jobs.count = cfg.get_int("jobs", 320);
  base.jobs.mean_interarrival_s = 1500.0;  // stream spans most of the week
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 11));

  scenario::Scenario fs = scenario::federate(base, 3);
  fs.domains[0].name = "dc-primary";
  fs.domains[0].cluster.nodes = 4;
  fs.domains[1].name = "dc-east";
  fs.domains[1].cluster.nodes = 3;
  fs.domains[2].name = "dc-west";
  fs.domains[2].cluster.nodes = 3;
  fs.horizon_s = cfg.get_double("horizon", 604800.0);  // one week

  // Live migration with link-fault retries: a drain of the primary mid-
  // week guarantees a stream of outbound transfers for the link faults
  // below to hit.
  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;
  fs.migration.max_moves_per_tick = 6;
  fs.migration.links.push_back({0, 1, 120.0, 1.0});
  fs.migration.links.push_back({0, 2, 80.0, 6.0});
  fs.migration.max_transfer_retries = 6;
  fs.migration.retry_backoff_s = 30.0;
  fs.migration.retry_backoff_max_s = 480.0;
  fs.migration.rescore_queued_transfers = true;
  fs.weight_events.push_back({0, 200000.0, 0.0});  // maintenance drain
  fs.weight_events.push_back({0, 260000.0, 1.0});

  // Chaos plan: stochastic node crashes all week (each node fails about
  // once a day, one-hour repairs), both outbound links of the draining
  // primary die mid-evacuation, and dc-east goes dark for two hours.
  fs.faults.enabled = true;
  fs.faults.checkpoint_interval_s = cfg.get_double("checkpoint", 1800.0);
  fs.faults.node_mttf_s = cfg.get_double("node_mttf", 86400.0);
  fs.faults.node_mttr_s = cfg.get_double("node_mttr", 3600.0);
  // The drain's first migration tick lands at t=200040 (120 s cadence);
  // cutting both links one second later catches its evacuation wave
  // mid-suspend/mid-wire, forcing retry-wait and backed-off retries that
  // succeed once the windows close (well inside the 6-retry budget).
  fs.faults.events.push_back({"link-down", 0, 0, 1, 200041.0, 400.0, 1.0});
  fs.faults.events.push_back({"link-down", 0, 0, 2, 200041.0, 700.0, 1.0});
  // "Dark" means dark: the blackout fails over demand and takes the
  // controller offline, and simultaneous crash windows on all three
  // dc-east nodes cut the power for real — every resident VM dies, so
  // the domain's web samples breach for the whole outage and the web
  // burn-rate alert below has a genuine signal to fire on.
  fs.faults.events.push_back({"blackout", 1, 0, 0, 350000.0, 7200.0, 1.0});
  fs.faults.events.push_back({"node-crash", 1, 0, 0, 350000.0, 7200.0, 1.0});
  fs.faults.events.push_back({"node-crash", 1, 1, 0, 350000.0, 7200.0, 1.0});
  fs.faults.events.push_back({"node-crash", 1, 2, 0, 350000.0, 7200.0, 1.0});

  // Observability (opt-in): stream a full control-plane trace and dump a
  // Prometheus metrics snapshot at end of run.
  const std::string trace_path = cfg.get_string("trace", "");
  if (!trace_path.empty()) {
    fs.obs.trace = "stream";
    fs.obs.trace_path = trace_path;
  }
  fs.obs.metrics_path = cfg.get_string("metrics", "");

  // SLA ledger + burn-rate alerting: registering SLOs turns the ledger
  // on, so every completed job's attribution closure is asserted inside
  // the run. The web SLO's windows are tuned so the two-hour dc-east
  // blackout (a third of all web samples going bad) reliably opens an
  // alert and recovery reliably closes it.
  fs.slos.push_back({"web", /*target=*/0.95, /*long_window_s=*/14400.0,
                     /*short_window_s=*/3600.0, /*burn_threshold=*/2.0});
  fs.slos.push_back({"jobs", /*target=*/0.5, /*long_window_s=*/86400.0,
                     /*short_window_s=*/14400.0, /*burn_threshold=*/1.5});
  const std::string sla_path = cfg.get_string("sla_report", "");
  if (!sla_path.empty()) {
    fs.obs.sla_report_path = sla_path;
    fs.obs.sla_report_csv_path = sla_path + ".csv";
  }

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  std::cout << "Federation '" << fs.name << "': 3 domains, " << base.jobs.count
            << " jobs over one simulated week.\nChaos: node MTTF " << fs.faults.node_mttf_s
            << " s / MTTR " << fs.faults.node_mttr_s << " s per node, checkpoints every "
            << fs.faults.checkpoint_interval_s
            << " s; both primary uplinks cut during the t=200ks drain; dc-east dark "
               "350000-357200 s\n\n";

  const scenario::FederatedResult result = scenario::run_federated_experiment(fs, options);

  for (const auto& d : result.domains) {
    std::cout << "=== " << d.name << " (" << d.jobs_routed << " jobs owned at end) ===\n";
    scenario::print_summary(std::cout, d.result.summary);
    std::cout << "\n";
  }
  std::cout << "=== federation (merged) ===\n";
  scenario::print_summary(std::cout, result.summary);

  const auto& ft = result.faults;
  const auto& mig = result.migration;
  std::cout << "\nFaults: " << ft.node_crashes << " node crashes (" << ft.node_recoveries
            << " repaired), " << ft.link_faults << " link faults, " << ft.blackouts
            << " blackouts\n"
            << "  jobs reverted:   " << ft.jobs_reverted << " (progress lost "
            << ft.jobs_lost_progress_s << " s at full speed)\n"
            << "  downtime:        " << ft.downtime_s << " s integrated across domains"
            << " (availability " << result.summary.availability << ")\n"
            << "  MTTR:            " << result.fault_mttr_s << " s over " << ft.repairs
            << " completed repairs\n"
            << "Transfers: " << mig.transfer_retries << " retries after link kills, "
            << mig.transfer_failbacks << " failbacks, " << mig.transfers_rescored
            << " queue re-scores\n";

  std::cout << "\nAvailability & utility over time:\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"fed_availability", "fed_fault_failed_nodes",
                              "fed_jobs_running", "fed_jobs_completed"},
                             /*every_nth=*/16);

  // --- self-checks (CI smoke) -------------------------------------------------
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ++failures;
    }
  };
  expect(ft.downtime_s > 0.0, "run saw nonzero availability loss");
  expect(ft.node_crashes > 0, "stochastic node crashes fired");
  expect(ft.blackouts == 1 && ft.blackout_recoveries == 1, "blackout fired and recovered");
  expect(mig.transfer_retries >= 1, "at least one transfer retried after a link kill");
  expect(ft.jobs_reverted > 0, "node crashes actually hit running jobs");
  expect(ft.jobs_lost_progress_s >= 0.0, "lost progress is accounted");
  // Job conservation: every submitted job is in exactly one world or in
  // flight with the migration manager — crashes lose progress, never jobs.
  long in_worlds = 0;
  for (const auto& d : result.domains) in_worlds += d.result.summary.jobs_submitted;
  expect(in_worlds <= base.jobs.count, "no job duplicated across worlds");
  expect(in_worlds + mig.in_flight >= base.jobs.count,
         "every crashed/migrated job is in a world or in flight");
  expect(result.summary.jobs_completed > base.jobs.count / 2,
         "the cluster still completes most jobs under chaos");

  // With --sla_report, re-read the written report and verify the blackout
  // left its fingerprint: a web burn-rate alert opened while dc-east was
  // dark (350000–357200 s) and closed once the short window drained
  // after recovery.
  if (!sla_path.empty()) {
    const double blackout_start = 350000.0;
    const double blackout_end = 357200.0;
    bool blackout_alert_opened = false;
    bool blackout_alert_closed = false;
    try {
      std::ifstream f(sla_path);
      std::ostringstream buf;
      buf << f.rdbuf();
      const obs::JsonValue doc = obs::parse_json(buf.str());
      const obs::JsonValue* alerts = doc.find("alerts");
      const obs::JsonValue* events = alerts != nullptr ? alerts->find("events") : nullptr;
      if (events != nullptr) {
        for (const obs::JsonValue& e : events->array) {
          const obs::JsonValue* app = e.find("app");
          const obs::JsonValue* opened = e.find("opened_s");
          if (app == nullptr || app->string != "web" || opened == nullptr) continue;
          // One sampling period of slack: the opening evaluation lands at
          // the first tick after enough bad samples accumulate.
          if (opened->number < blackout_start || opened->number > blackout_end + 600.0) continue;
          blackout_alert_opened = true;
          const obs::JsonValue* closed = e.find("closed_s");
          if (closed != nullptr && closed->type == obs::JsonValue::Type::kNumber &&
              closed->number > blackout_end) {
            blackout_alert_closed = true;
          }
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "CHECK FAILED: SLA report unreadable: " << e.what() << "\n";
      ++failures;
    }
    expect(blackout_alert_opened, "a web burn-rate alert opened during the dc-east blackout");
    expect(blackout_alert_closed, "the blackout alert closed after recovery");
  }

  if (failures > 0) {
    std::cerr << "\n" << failures << " chaos self-check(s) failed\n";
    return 1;
  }
  std::cout << "\nAll chaos self-checks passed.\n";
  if (!trace_path.empty()) {
    std::cout << "Trace written to " << trace_path << " (open in https://ui.perfetto.dev)\n";
  }
  if (!fs.obs.metrics_path.empty()) {
    std::cout << "Metrics snapshot written to " << fs.obs.metrics_path << "\n";
  }
  if (!sla_path.empty()) {
    std::cout << "SLA report written to " << sla_path << " (CSV: " << sla_path << ".csv)\n";
  }
  return 0;
}
