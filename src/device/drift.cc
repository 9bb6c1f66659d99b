#include "device/drift.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eqc {

namespace {

/** Clamp an error probability to a sane range. */
double
clampError(double e)
{
    return std::clamp(e, 0.0, 0.75);
}

/** A qubit's values as measured at a calibration of quality @p f. */
void
calibrateQubit(QubitCalibration &q, double f)
{
    const double coherenceF = 1.0 / std::sqrt(f);
    q.t1Us *= coherenceF;
    q.t2Us = std::min(q.t2Us * coherenceF, 2.0 * q.t1Us);
    q.gate1qError = clampError(q.gate1qError * f);
    q.readout.p01 = clampError(q.readout.p01 * f);
    q.readout.p10 = clampError(q.readout.p10 * f);
    q.coherentRxRad *= f; // signed miscalibration scales too
}

/** A pair's CX error as measured at a calibration of quality @p f. */
double
calibratedCxError(double e, double f)
{
    return clampError(e * f);
}

} // namespace

DriftParams
DriftParams::spiked(double ratePerHour, double severity) const
{
    DriftParams p = *this;
    if (ratePerHour >= 0.0)
        p.incidentRatePerHour = ratePerHour;
    if (severity >= 0.0)
        p.incidentSeverity = severity;
    return p;
}

CalibrationTracker::CalibrationTracker(CalibrationSnapshot base,
                                       DriftParams params, Rng rng)
    : base_(std::move(base)), params_(params)
{
    if (params_.calibrationPeriodH <= 0.0)
        fatal("CalibrationTracker: calibration period must be positive");

    Rng calRng = rng.fork("calibrations");
    Rng latentRng = rng.fork("latent");
    double t = 0.0;
    while (t < params_.horizonH) {
        calTimes_.push_back(t);
        calQuality_.push_back(
            calRng.lognormal(0.0, params_.calQualitySigma));
        latentFactor_.push_back(
            params_.latentSigma > 0.0
                ? latentRng.lognormal(0.0, params_.latentSigma)
                : 1.0);
        double jitter = params_.calibrationJitterH > 0.0
                            ? calRng.uniform(-params_.calibrationJitterH,
                                             params_.calibrationJitterH)
                            : 0.0;
        t += std::max(1.0, params_.calibrationPeriodH + jitter);
    }

    if (params_.incidentRatePerHour > 0.0) {
        Rng incRng = rng.fork("incidents");
        double cursor = 0.0;
        while (cursor < params_.horizonH) {
            double gap =
                incRng.exponentialMean(1.0 / params_.incidentRatePerHour);
            cursor += gap;
            if (cursor >= params_.horizonH)
                break;
            double dur =
                incRng.exponentialMean(params_.incidentMeanDurationH);
            // Severity varies around the configured value.
            double sev = params_.incidentSeverity *
                         incRng.lognormal(0.0, 0.25);
            incidents_.push_back({cursor, cursor + dur, sev});
            cursor += dur;
        }
    }
}

std::size_t
CalibrationTracker::calIndex(double tH) const
{
    auto it = std::upper_bound(calTimes_.begin(), calTimes_.end(), tH);
    if (it == calTimes_.begin())
        return 0;
    return static_cast<std::size_t>(it - calTimes_.begin()) - 1;
}

double
CalibrationTracker::lastCalibrationTime(double tH) const
{
    return calTimes_[calIndex(tH)];
}

double
CalibrationTracker::hoursSinceCalibration(double tH) const
{
    return std::max(0.0, tH - lastCalibrationTime(tH));
}

bool
CalibrationTracker::inIncident(double tH) const
{
    for (const Incident &inc : incidents_)
        if (tH >= inc.startH && tH < inc.endH)
            return true;
    return false;
}

double
CalibrationTracker::errorInflation(double tH) const
{
    double infl = 1.0 +
                  params_.errorDriftPerHour * hoursSinceCalibration(tH);
    // Latent (crosstalk-like) noise: real but never reported.
    infl *= latentFactor_[calIndex(tH)];
    for (const Incident &inc : incidents_)
        if (tH >= inc.startH && tH < inc.endH)
            infl *= inc.severity;
    return infl;
}

CalibrationSnapshot
CalibrationTracker::snapshotAtCalibration(std::size_t idx) const
{
    CalibrationSnapshot s = base_;
    const double f = calQuality_[idx];
    for (QubitCalibration &q : s.qubits)
        calibrateQubit(q, f);
    for (auto &[k, v] : s.cxError)
        v = calibratedCxError(v, f);
    for (auto &[k, v] : s.cxPhaseRad)
        v *= f;
    s.timeH = calTimes_[idx];
    return s;
}

CalibrationSnapshot
CalibrationTracker::reported(double tH) const
{
    CalibrationSnapshot s = snapshotAtCalibration(calIndex(tH));
    // T1/T2 are republished every coherenceRefreshH hours, so the
    // reported coherence tracks the true degradation in steps.
    if (params_.coherenceRefreshH > 0.0 &&
        params_.coherenceDriftPerHour > 0.0) {
        double since = hoursSinceCalibration(tH);
        double seen = std::floor(since / params_.coherenceRefreshH) *
                      params_.coherenceRefreshH;
        double f = 1.0 / (1.0 + params_.coherenceDriftPerHour * seen);
        for (QubitCalibration &q : s.qubits) {
            q.t1Us *= f;
            q.t2Us = std::min(q.t2Us * f, 2.0 * q.t1Us);
        }
    }
    return s;
}

CalibrationTracker::Drift
CalibrationTracker::driftAt(double tH) const
{
    Drift d;
    d.quality = calQuality_[calIndex(tH)];
    d.inflation = errorInflation(tH);
    // Coherent miscalibration drifts more slowly than stochastic error
    // rates (it is a control-pulse detuning, not a decoherence budget).
    d.coherentInflation = std::sqrt(d.inflation);
    d.coherenceDecay = 1.0 / (1.0 + params_.coherenceDriftPerHour *
                                        hoursSinceCalibration(tH));
    return d;
}

QubitCalibration
CalibrationTracker::actualQubit(const Drift &d, int q) const
{
    QubitCalibration c = base_.qubits[q];
    calibrateQubit(c, d.quality);
    c.t1Us *= d.coherenceDecay;
    c.t2Us = std::min(c.t2Us * d.coherenceDecay, 2.0 * c.t1Us);
    c.gate1qError = clampError(c.gate1qError * d.inflation);
    c.readout.p01 = clampError(c.readout.p01 * d.inflation);
    c.readout.p10 = clampError(c.readout.p10 * d.inflation);
    c.coherentRxRad *= d.coherentInflation;
    return c;
}

double
CalibrationTracker::actualCxError(const Drift &d, double baseError)
{
    return clampError(calibratedCxError(baseError, d.quality) *
                      d.inflation);
}

double
CalibrationTracker::actualCxPhase(const Drift &d, double basePhase)
{
    return basePhase * d.quality * d.coherentInflation;
}

CalibrationSnapshot
CalibrationTracker::actual(double tH) const
{
    const Drift d = driftAt(tH);
    CalibrationSnapshot s = base_;
    for (std::size_t q = 0; q < s.qubits.size(); ++q)
        s.qubits[q] = actualQubit(d, static_cast<int>(q));
    for (auto &[k, v] : s.cxError)
        v = actualCxError(d, v);
    for (auto &[k, v] : s.cxPhaseRad)
        v = actualCxPhase(d, v);
    s.timeH = tH;
    return s;
}

} // namespace eqc
