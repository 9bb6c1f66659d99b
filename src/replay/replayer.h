/**
 * @file
 * Journal-driven reconstruction of a ServiceNode or Router-fleet run.
 *
 * A journal (replay/journal.h) is a complete causal record of one
 * node's, or one routed fleet's, serving history: the config names
 * the devices (with any chaos drift overrides, grouped by node),
 * options, workloads and ring shape; the Admit/Reject records (Route
 * records behind a router) carry every request verbatim; member
 * health/membership and Drain records pin the fault and drive
 * schedule. Because the nodes are bit-deterministic under a
 * VirtualClock, re-driving exactly that sequence through a freshly
 * built target must reproduce every recorded outcome to the bit — the
 * Replayer asserts it, field by field, with hex bit patterns in the
 * mismatch diagnostics.
 *
 * That turns any production incident or failing chaos seed into a
 * local repro: feed the journal artifact to the Replayer and the full
 * lifecycle (coalescing, cache hits, kills, requeues) re-executes
 * identically. This file also hosts the builders that turn a
 * journal config's names back into objects (devicesFor /
 * problemByName), so journal.h stays free of catalog and problem
 * dependencies.
 */

#ifndef EQC_REPLAY_REPLAYER_H
#define EQC_REPLAY_REPLAYER_H

#include <string>
#include <unordered_map>
#include <vector>

#include "device/catalog.h"
#include "replay/journal.h"
#include "serve/service_node.h"
#include "vqa/problem.h"

namespace eqc {

class TaskPool;

namespace replay {

/**
 * Rebuild the recorded ensemble: catalog lookup by name at the
 * journal's catalog seed, chaos drift-spike overrides re-applied.
 * @param node only the members of this node (routed journals); -1
 *        keeps every member
 */
std::vector<Device> devicesFor(const JournalConfig &config,
                               int node = -1);

/** Problem-factory registry for WorkloadSpec names; fatals unknown. */
VqaProblem problemByName(const std::string &name, uint64_t initSeed);

/** Outcome of one replay. */
struct ReplayResult
{
    /** Jobs whose replayed outcome was compared against the record. */
    std::size_t jobsCompared = 0;
    /** Divergences, human-readable with hex bit patterns. Empty = the
     *  replay was hex-bit-identical to the journal. */
    std::vector<std::string> mismatches;

    bool identical() const { return mismatches.empty(); }
};

/**
 * Re-drives a journal through a freshly reconstructed target — one
 * ServiceNode, or a Router over config.nodes > 1 nodes — on virtual
 * clocks, and verifies every recorded Finalize (and admission
 * verdict) bit-for-bit. One record loop serves both targets; only
 * request re-drive (Admit/Reject vs Route), member-record targeting
 * and the drain cue differ. A record naming a node or member the
 * target lacks is a mismatch, never an exception. Only meaningful
 * for journals whose config.clock is "virtual" — wall-clock runs are
 * not bit-replayable.
 */
class Replayer
{
  public:
    explicit Replayer(EventJournal journal)
        : journal_(std::move(journal))
    {
    }

    /**
     * Rebuild + re-drive + compare.
     * @param pool a single node's shard fan-out pool (nullptr =
     *        TaskPool::shared()); fleet nodes use their own. Any
     *        thread count yields the same bits by design.
     */
    ReplayResult run(TaskPool *pool = nullptr) const;

    const EventJournal &journal() const { return journal_; }

  private:
    EventJournal journal_;
};

} // namespace replay
} // namespace eqc

#endif // EQC_REPLAY_REPLAYER_H
