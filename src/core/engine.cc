#include "core/engine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "vqa/expectation.h"

namespace eqc {

// ---------------------------------------------------------------------------
// TraceObserver default (no-op) hooks.
// ---------------------------------------------------------------------------

void
TraceObserver::onResult(RunContext &, std::size_t, const GradientResult &,
                        double)
{
}

void
TraceObserver::onEpoch(RunContext &, EpochRecord &)
{
}

void
TraceObserver::onCooldown(RunContext &, std::size_t, double)
{
}

void
TraceObserver::onFinish(RunContext &)
{
}

// ---------------------------------------------------------------------------
// Built-in observers: the telemetry the legacy executors hard-coded.
// ---------------------------------------------------------------------------

void
WeightTimelineObserver::onResult(RunContext &ctx, std::size_t clientId,
                                 const GradientResult &result,
                                 double weight)
{
    ctx.trace().weights.push_back({ctx.nowH(),
                                   static_cast<int>(clientId),
                                   result.pCorrect, weight});
}

void
JobsPerDeviceObserver::onResult(RunContext &ctx, std::size_t clientId,
                                const GradientResult &, double)
{
    ++ctx.trace().jobsPerDevice[ctx.ensemble().client(clientId)
                                    .device()
                                    .name];
}

void
IdealEnergyObserver::onEpoch(RunContext &ctx, EpochRecord &record)
{
    record.energyIdeal =
        idealEnergy(ctx.problem().ansatz, ctx.problem().hamiltonian,
                    ctx.master().params());
}

// ---------------------------------------------------------------------------
// RunContext
// ---------------------------------------------------------------------------

RunContext::RunContext(const VqaProblem &problem,
                       const std::vector<Device> &devices,
                       const EqcOptions &options,
                       std::vector<TraceObserver *> observers)
    : problem_(problem), options_(options),
      ensemble_(problem_, devices, options.seed, options.client),
      master_(problem_, options.master),
      observers_(std::move(observers)),
      bottomStreak_(ensemble_.size(), 0),
      cooldownUntil_(ensemble_.size(), 0.0)
{
}

void
RunContext::applyResult(std::size_t ci,
                        const ClientNode::Processed &processed,
                        double nowH)
{
    nowH_ = nowH;
    clock_->advanceTo(nowH);
    const GradientResult &result = processed.result;
    double weight = master_.onResult(result);
    lastCompletionH_ = std::max(lastCompletionH_, nowH);
    trace_.circuitEvaluations += result.circuitsRun;
    for (TraceObserver *obs : observers_)
        obs->onResult(*this, ci, result, weight);

    // Adaptive management: cool down clients pinned at the bottom of
    // the weight range.
    const WeightBounds &b = master_.options().weightBounds;
    if (options_.adaptive.enabled && b.enabled()) {
        if (weight <= b.lo + options_.adaptive.margin * (b.hi - b.lo)) {
            if (++bottomStreak_[ci] >= options_.adaptive.unstableStreak) {
                cooldownUntil_[ci] = nowH + options_.adaptive.cooldownH;
                bottomStreak_[ci] = 0;
                ++trace_.cooldowns;
                for (TraceObserver *obs : observers_)
                    obs->onCooldown(*this, ci, cooldownUntil_[ci]);
            }
        } else {
            bottomStreak_[ci] = 0;
        }
    }
    recordEpochs();
}

void
RunContext::recordEpochs()
{
    // Pull epoch records as soon as the master's epoch counter advances.
    while (static_cast<int>(trace_.epochs.size()) <
               master_.epochsCompleted() &&
           static_cast<int>(trace_.epochs.size()) <
               options_.master.epochs) {
        EpochRecord rec;
        rec.epoch = static_cast<int>(trace_.epochs.size());
        rec.timeH = nowH_;
        // Diagnostic energy on an ensemble member, round-robin, so the
        // plotted curve carries the mixture's measurement noise.
        ClientNode &ev = ensemble_.client(rrEval_++ % ensemble_.size());
        rec.energyDevice =
            ev.evaluateEnergy(master_.params(), nowH_, enginePool_);
        for (TraceObserver *obs : observers_)
            obs->onEpoch(*this, rec);
        trace_.epochs.push_back(rec);
    }
}

void
RunContext::finish()
{
    trace_.terminated = !master_.done();
    trace_.finalParams = master_.params();
    trace_.staleness = master_.stalenessStats();
    trace_.totalHours = lastCompletionH_;
    trace_.epochsPerHour =
        trace_.totalHours > 0.0
            ? static_cast<double>(trace_.epochs.size()) /
                  trace_.totalHours
            : 0.0;
    for (TraceObserver *obs : observers_)
        obs->onFinish(*this);
}

// ---------------------------------------------------------------------------
// EngineRegistry
// ---------------------------------------------------------------------------

EngineRegistry::EngineRegistry()
    : factories_{{"virtual", &makeVirtualEngine},
                 {"service", &makeServiceEngine}}
{
}

EngineRegistry &
EngineRegistry::instance()
{
    static EngineRegistry registry;
    return registry;
}

bool
EngineRegistry::has(const std::string &name) const
{
    return factories_.count(name) > 0;
}

std::unique_ptr<ExecutionEngine>
EngineRegistry::create(const std::string &name) const
{
    auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::ostringstream msg;
        msg << "unknown execution engine \"" << name
            << "\"; registered engines:";
        for (const auto &[key, factory] : factories_)
            msg << " \"" << key << "\"";
        throw std::invalid_argument(msg.str());
    }
    return it->second();
}

std::vector<std::string>
EngineRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[key, factory] : factories_)
        out.push_back(key);
    return out; // std::map iteration is already sorted
}

} // namespace eqc
