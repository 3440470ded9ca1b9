#pragma once

// Structured trace recorder: deterministic, sim-time-stamped spans and
// instant events from every control-plane subsystem, exported as Chrome
// trace-event JSON (load in Perfetto / chrome://tracing).
//
// Mapping: pid = domain (0 = the global/serial spine: engine, router,
// migration manager, fault injector; i+1 = domain i), tid = subsystem lane
// (Lane enum). Timestamps are *simulated* microseconds — never wall clock —
// so a trace is a pure function of the scenario.
//
// Determinism under engine.threads>1: the recorder implements
// sim::EngineObserver. Events emitted while a parallel batch item runs on a
// worker thread go to that item's private staging buffer and are appended to
// the main buffer at the merge barrier in batch *pop* order — the exact
// order the same callbacks execute in at threads=1 — so the recorded trace
// is byte-identical across thread counts. The one exception is the engine's
// own dispatch/batch events (batches don't exist at threads=1), which are
// off by default and opt-in via obs.trace_engine; they are documented as
// outside the thread-count-invariance contract, like EngineStats.
//
// A disabled recorder is never constructed (see scenario/obs_factory): the
// obs-off path has no recorder object at all, keeping runs bit-identical.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/context.hpp"  // TraceArg
#include "sim/engine_observer.hpp"

namespace heteroplace::obs {

enum class TraceMode { kOff, kRing, kStream };

/// Parse "off" | "ring" | "stream"; throws std::invalid_argument otherwise.
[[nodiscard]] TraceMode trace_mode_from_string(const std::string& s);

/// Subsystem lanes; exported as Chrome tid with lane_name() thread names.
enum class Lane : std::uint8_t {
  kEngine = 0,
  kController,
  kExecutor,
  kRouter,
  kMigration,
  kPower,
  kFaults,
  kWorkload,
  kCount
};
[[nodiscard]] const char* lane_name(Lane lane);

/// One trace event. `name` must be a string literal. Fixed-size and
/// trivially copyable so the ring buffer is a flat allocation.
struct TraceEvent {
  double ts_s{0.0};       // sim time, seconds (exported as microseconds)
  std::uint64_t id{0};    // async-span id ('b'/'e' only)
  const char* name{""};
  std::uint32_t pid{0};
  std::uint8_t tid{0};    // Lane
  char phase{'i'};        // 'B','E','i','b','e'
  std::uint8_t n_args{0};
  TraceArg args[3]{};

  [[nodiscard]] bool operator==(const TraceEvent& o) const;
};

class TraceRecorder final : public sim::EngineObserver {
 public:
  struct Options {
    TraceMode mode{TraceMode::kOff};
    std::size_t ring_capacity{1u << 18};
    std::string path;          // kStream: required; kRing: optional end-of-run dump
    bool engine_lane{false};   // emit engine dispatch/batch events (thread-count-dependent)
  };

  explicit TraceRecorder(const Options& opts);
  ~TraceRecorder() override;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return opts_.mode != TraceMode::kOff; }

  /// Chrome process_name metadata for a pid (call before finish()).
  void set_process_name(std::uint32_t pid, std::string name);

  // --- emission (safe from worker threads during a batch item) -------------
  void instant(std::uint32_t pid, Lane lane, const char* name, double t_s,
               std::initializer_list<TraceArg> args = {});
  void begin(std::uint32_t pid, Lane lane, const char* name, double t_s,
             std::initializer_list<TraceArg> args = {});
  void end(std::uint32_t pid, Lane lane, const char* name, double t_s,
           std::initializer_list<TraceArg> args = {});
  /// Async spans ('b'/'e'), matched by id; used for multi-event state
  /// machines like one migration's suspend→checkpoint→transfer→resume arc.
  void async_begin(std::uint32_t pid, Lane lane, const char* name, std::uint64_t id, double t_s,
                   std::initializer_list<TraceArg> args = {});
  void async_end(std::uint32_t pid, Lane lane, const char* name, std::uint64_t id, double t_s,
                 std::initializer_list<TraceArg> args = {});

  // --- sim::EngineObserver -------------------------------------------------
  void on_serial_event(double time, int priority) override;
  void on_batch_begin(double time, int priority, std::size_t items, std::size_t groups) override;
  void on_batch_item_begin(std::size_t item) override;
  void on_batch_item_end() override;
  void on_batch_end(double time) override;

  // --- inspection / export -------------------------------------------------
  /// Events currently retained (ring) or already written out (stream).
  [[nodiscard]] std::size_t recorded() const;
  /// Ring mode: events evicted by wraparound.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Ring mode: retained events, oldest first. Empty in stream mode.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Write the full Chrome trace-event JSON document (events + metadata) to
  /// `os`. Ring mode only; stream mode writes incrementally to `path`.
  void write_json(std::ostream& os) const;

  /// Finalize output: stream mode flushes buffered events, appends metadata
  /// and closes the JSON document; ring mode with a non-empty `path` dumps
  /// write_json() there. Idempotent; called by the runners at end of run.
  void finish();

 private:
  void emit(std::uint32_t pid, Lane lane, char phase, const char* name, std::uint64_t id,
            double t_s, std::initializer_list<TraceArg> args);
  void append_main(const TraceEvent& ev);  // serial contexts / merge barrier only
  void note_lane(std::uint32_t pid, Lane lane);
  void flush_stream_buffer();
  void write_events_json(std::ostream& os, const TraceEvent* evs, std::size_t n,
                         bool& first) const;
  void write_metadata_json(std::ostream& os, bool& first) const;

  Options opts_;
  // Ring storage (kRing): flat buffer of capacity slots, write cursor wraps.
  std::vector<TraceEvent> ring_;
  std::size_t ring_next_{0};
  std::size_t ring_size_{0};
  std::uint64_t dropped_{0};
  // Stream storage (kStream): buffered events serialized to out_ in chunks.
  std::vector<TraceEvent> stream_buf_;
  std::ofstream out_;
  std::uint64_t streamed_{0};
  bool stream_first_{true};
  bool finished_{false};
  // Parallel-batch staging: one buffer per batch item, merged in pop order.
  std::vector<std::vector<TraceEvent>> staging_;
  bool batch_active_{false};
  // Metadata: process names and the (pid, lane) pairs seen, for thread_name
  // metadata at export. Maintained only from serial contexts.
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::uint32_t, std::uint32_t> lanes_seen_;  // pid -> lane bitmask
};

}  // namespace heteroplace::obs
