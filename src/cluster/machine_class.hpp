#pragma once

// Machine classes and placement constraints.
//
// A MachineClass describes one hardware flavor in a heterogeneous
// cluster: architecture tag, core count, nominal per-core MHz, memory,
// an optional set of accelerator tags ("gpu", ...) and a delivered-speed
// factor. All CPU quantities downstream of the class (node capacities,
// solver headrooms, equalizer allocations) are *delivered reference MHz*:
// a class contributes cores × core_mhz × speed_factor, computed once when
// its nodes are added, so every layer that already reasons in MHz keeps
// working unchanged.
//
// A ConstraintSet is the job-side counterpart: required architecture,
// required accelerator tags, and a minimum delivered per-core speed. An
// empty constraint admits every class — the legacy scalar cluster is the
// degenerate case of one implicit default class and all-empty
// constraints, and reproduces pre-class output bit for bit (pinned by
// tests/machine_class_test.cpp).

#include <optional>
#include <string>
#include <vector>

#include "cluster/resources.hpp"

namespace heteroplace::cluster {

/// Index into a MachineClassRegistry. Class 0 is the implicit default
/// (the legacy scalar node flavor with no arch/accel/core information).
using ClassId = int;

struct MachineClass {
  std::string name{"default"};
  /// Architecture tag ("x86", "arm", "power", ...); empty = unspecified.
  std::string arch;
  /// Core count and nominal per-core MHz; 0 = unspecified (scalar node).
  int cores{0};
  double core_mhz{0.0};
  double mem_mb{0.0};
  /// Delivered fraction of nominal speed in (0, 1]; models
  /// microarchitecture efficiency, not a DVFS state.
  double speed_factor{1.0};
  /// Accelerator tags, kept sorted for deterministic comparison.
  std::vector<std::string> accel;

  [[nodiscard]] bool has_accel(const std::string& tag) const;

  /// Delivered per-core speed in reference MHz (what a single thread
  /// actually gets on this class).
  [[nodiscard]] double delivered_core_mhz() const { return core_mhz * speed_factor; }

  /// Delivered node capacity in reference MHz.
  [[nodiscard]] double delivered_cpu_mhz() const {
    return static_cast<double>(cores) * core_mhz * speed_factor;
  }

  [[nodiscard]] Resources capacity() const {
    return Resources{util::CpuMhz{delivered_cpu_mhz()}, util::MemMb{mem_mb}};
  }

  [[nodiscard]] bool operator==(const MachineClass&) const = default;
};

/// Hard placement constraints a job or app imposes on the machines it
/// may run on. Empty fields are wildcards; the default-constructed set
/// admits everything.
struct ConstraintSet {
  /// Required architecture; empty = any.
  std::string arch;
  /// Required accelerator tags (all must be present); kept sorted.
  std::vector<std::string> accel;
  /// Minimum delivered per-core speed in reference MHz; 0 = any. A class
  /// with unspecified core_mhz fails any positive requirement (closed —
  /// an unknown machine cannot promise single-thread speed).
  double min_core_mhz{0.0};

  [[nodiscard]] bool empty() const {
    return arch.empty() && accel.empty() && min_core_mhz <= 0.0;
  }

  /// Does `c` satisfy every requirement? The empty set admits every
  /// class; a non-empty set fails closed against the underspecified
  /// default class.
  [[nodiscard]] bool admits(const MachineClass& c) const;

  [[nodiscard]] bool operator==(const ConstraintSet&) const = default;
};

/// Cluster-owned id <-> class table. Construction installs the implicit
/// default class at id 0; explicitly registered classes follow in
/// registration order (deterministic).
class MachineClassRegistry {
 public:
  MachineClassRegistry() { classes_.push_back(MachineClass{}); }

  /// Register a class; throws std::invalid_argument on a duplicate or
  /// empty name or a speed_factor outside (0, 1].
  ClassId add(MachineClass c);

  [[nodiscard]] const MachineClass& at(ClassId id) const;
  [[nodiscard]] std::optional<ClassId> find(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return classes_.size(); }
  [[nodiscard]] const std::vector<MachineClass>& classes() const { return classes_; }

  /// True once any class beyond the implicit default is registered —
  /// the gate for class-aware behavior (per-class obs series, equalizer
  /// speed caps) that must not perturb legacy scalar runs.
  [[nodiscard]] bool explicit_classes() const { return classes_.size() > 1; }

 private:
  std::vector<MachineClass> classes_;
};

}  // namespace heteroplace::cluster
