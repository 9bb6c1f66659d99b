#include "core/master.h"

#include "common/logging.h"

namespace eqc {

MasterNode::MasterNode(const VqaProblem &problem,
                       const MasterOptions &options)
    : options_(options), numParams_(problem.numParams()),
      numSamples_(problem.numSamples()),
      params_(problem.initialParams),
      optimizer_(options.learningRate),
      normalizer_(options.weightBounds)
{
    if (numParams_ < 1)
        fatal("MasterNode: problem has no trainable parameters");
    if (static_cast<int>(params_.size()) != numParams_)
        fatal("MasterNode: initial parameter size mismatch");
}

bool
MasterNode::done() const
{
    return epochsCompleted() >= options_.epochs;
}

GradientTask
MasterNode::nextTask()
{
    GradientTask t;
    t.paramIndex = nextParam_;
    t.sample = nextSample_;
    t.params = params_;
    t.version = optimizer_.updates();
    if (++nextSample_ == numSamples_) {
        nextSample_ = 0;
        nextParam_ = (nextParam_ + 1) % numParams_;
    }
    return t;
}

double
MasterNode::onResult(const GradientResult &result)
{
    normalizer_.update(result.clientId, result.pCorrect);
    double weight = normalizer_.bounds().enabled()
                        ? normalizer_.weightFor(result.clientId)
                        : 1.0;
    optimizer_.apply(params_, result.paramIndex, result.gradient,
                     weight);
    ++received_;
    staleness_.add(
        static_cast<double>(optimizer_.updates() - 1 - result.version));
    return weight;
}

int
MasterNode::epochsCompleted() const
{
    return static_cast<int>(
        received_ / (static_cast<uint64_t>(numParams_) * numSamples_));
}

} // namespace eqc
