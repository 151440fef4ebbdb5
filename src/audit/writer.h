// Serializes the global lineage ledger into the indexed audit artifact
// (audit.bin, format.h / DESIGN.md §12).
//
// The artifact is a pure function of the ledger contents: no wall-clock,
// no iteration-order dependence (unit and probe-failure maps are already
// sorted; estimate directories are sorted stably by label at write time).
// The ledger itself is lane-count invariant (per-record verdicts are
// written in place at each record's id, fit marks from pool tasks set
// flags once, and every other write is serial), and a durable resume
// rebuilds it by feeding the journaled steps through the live commit
// path, so a killed-and-resumed run holds the exact ledger and therefore
// writes the exact audit.bin.
//
// Cost: a few passes over each run's records plus O(units x facets) per
// estimate. Facets are dense counters (by intent code, fault bit and a
// per-run vantage slot) rendered to sorted names only as a section is
// written; each kept unit's share of a composition is computed once, and
// an estimate's compositions are sums of shares (DESIGN.md §12).
#pragma once

#include <string>

#include "core/result.h"
#include "obs/lineage.h"

namespace sisyphus::audit {

/// Builds the complete audit.bin byte image from a lineage ledger.
/// Deterministic: equal ledgers produce equal bytes.
std::string BuildAuditArtifact(const obs::Lineage& lineage);

/// Writes `directory`/audit.bin (directory must exist) through a
/// temporary file renamed into place, so a crash mid-write never leaves a
/// torn audit.bin. Returns an error on I/O failure.
core::Status WriteAuditArtifact(const std::string& directory,
                                const obs::Lineage& lineage);

}  // namespace sisyphus::audit
