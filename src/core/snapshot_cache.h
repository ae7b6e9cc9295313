// On-disk snapshot cache so the thermal simulation (at paper size ~0.6 s
// on 4 cores, ~1.4 s on one) runs once and every figure harness reloads
// it in milliseconds.
//
// Format (little-endian, host doubles): magic + version, the simulation-
// relevant ExperimentConfig fields, the map matrix, the per-cell energy
// vector, and an FNV-1a checksum over the payload. Loads validate the
// header, the exact file size and the checksum; any mismatch (stale config,
// truncation, bit rot) is treated as a miss and the experiment is
// re-simulated and re-saved.
#ifndef EIGENMAPS_CORE_SNAPSHOT_CACHE_H
#define EIGENMAPS_CORE_SNAPSHOT_CACHE_H

#include <optional>
#include <string>

#include "core/pipeline.h"

namespace eigenmaps::core {

struct CachedSnapshots {
  SnapshotSet snapshots;
  numerics::Vector energy;
};

/// Writes atomically (temp file + rename). Returns false on IO failure.
bool save_snapshots(const std::string& path, const ExperimentConfig& config,
                    const SnapshotSet& snapshots,
                    const numerics::Vector& energy);

/// Returns nullopt when the file is missing, malformed, truncated, fails
/// the checksum, or was produced by a different config.
std::optional<CachedSnapshots> load_snapshots(const std::string& path,
                                              const ExperimentConfig& config);

/// Cache-or-simulate: the entry point the harnesses use.
Experiment build_cached_experiment(const ExperimentConfig& config,
                                   const std::string& path);

}  // namespace eigenmaps::core

#endif  // EIGENMAPS_CORE_SNAPSHOT_CACHE_H
