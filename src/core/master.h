/**
 * @file
 * The EQC master node (paper Alg. 1).
 *
 * Holds the global parameter vector and the loss definition, hands out
 * parameter-differentiation tasks cyclically to whichever client is
 * free, and applies returned gradients with the weighted ASGD rule
 * (Eq. 4). The master is execution-engine agnostic: every engine
 * drives this same class through RunContext, so the asynchronous
 * semantics — stale gradients, cyclic parameter order, bounded delay —
 * come only from job latencies, never from the deployment.
 */

#ifndef EQC_CORE_MASTER_H
#define EQC_CORE_MASTER_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/weighting.h"
#include "vqa/optimizer.h"
#include "vqa/problem.h"

namespace eqc {

/** One parameter-differentiation assignment. */
struct GradientTask
{
    int paramIndex = -1;
    /** Snapshot of the parameters at assignment time. */
    std::vector<double> params;
    /** Master version (update count) at assignment time. */
    uint64_t version = 0;
};

/** A completed gradient computation returned by a client. */
struct GradientResult
{
    int paramIndex = -1;
    double gradient = 0.0;
    /** Eq. 2 quality score computed by the client at induction time. */
    double pCorrect = 1.0;
    int clientId = -1;
    uint64_t version = 0;
    /** Virtual completion time (hours). */
    double completionTimeH = 0.0;
    int circuitsRun = 0;
};

/** Master-node configuration. */
struct MasterOptions
{
    int epochs = 250;
    double learningRate = 0.1;
    WeightBounds weightBounds{}; ///< {1,1} disables weighting
};

/** The single master of an EQC deployment. */
class MasterNode
{
  public:
    /**
     * @param problem the VQA under optimization
     * @param options epochs / learning rate / weight bounds
     */
    MasterNode(const VqaProblem &problem, const MasterOptions &options);

    /** true once the target number of epochs has been applied. */
    bool done() const;

    /** Next cyclic parameter assignment (Alg. 1 task queue). */
    GradientTask nextTask();

    /**
     * Apply a returned gradient with the weighted ASGD rule (Eq. 4).
     * @return the normalized weight that was applied
     */
    double onResult(const GradientResult &result);

    /** Live parameter vector. */
    const std::vector<double> &params() const { return params_; }

    /** Completed epochs (gradients received / parameter count). */
    int epochsCompleted() const;

    /** Gradients applied so far. */
    uint64_t gradientsReceived() const { return received_; }

    /** Staleness (in master updates) of the applied gradients. */
    const RunningStats &stalenessStats() const { return staleness_; }

    /** The Sec. V-D weight normalizer (exposed for recording). */
    WeightNormalizer &normalizer() { return normalizer_; }

    const MasterOptions &options() const { return options_; }

  private:
    MasterOptions options_;
    int numParams_;
    std::vector<double> params_;
    AsgdOptimizer optimizer_;
    WeightNormalizer normalizer_;
    int nextParam_ = 0;
    uint64_t received_ = 0;
    RunningStats staleness_;
};

} // namespace eqc

#endif // EQC_CORE_MASTER_H
