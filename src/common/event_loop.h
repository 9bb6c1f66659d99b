/**
 * @file
 * Shared event-scheduling core with pluggable clocks.
 *
 * The discrete-event machinery that used to live inside the simulation
 * layer (sim/event_queue.h) is generic: a time-ordered queue of
 * handlers, fired in (time, scheduling-order) sequence. What differs
 * between deployments is only *how time passes* between events. This
 * header pins that down:
 *
 *  - Clock is the time source: nowH() in model hours, advanceTo()
 *    moves the clock forward to an event's timestamp.
 *  - VirtualClock jumps instantly — deterministic discrete-event
 *    replay, bit-identical for a fixed seed (the simulation default).
 *  - SteadyClock maps model hours onto real wall time at a
 *    configurable scale and *sleeps* until each event's deadline —
 *    real-time serving on the same event-structured code.
 *  - EventLoop owns the queue and drives whichever clock it was given.
 *
 * Events at equal timestamps fire in scheduling order (a monotonically
 * increasing sequence number breaks ties), which keeps event-driven
 * traces deterministic under the virtual clock.
 */

#ifndef EQC_COMMON_EVENT_LOOP_H
#define EQC_COMMON_EVENT_LOOP_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <vector>

namespace eqc {

/** Model-time source of an EventLoop. Time unit: hours (the paper's). */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Current model time in hours. */
    virtual double nowH() const = 0;

    /**
     * Move the clock forward to @p tH: a virtual clock jumps, a wall
     * clock blocks until the mapped deadline. No-op when @p tH is not
     * in the future — clocks never run backwards.
     */
    virtual void advanceTo(double tH) = 0;

    /** true when advanceTo is instantaneous (deterministic replay). */
    virtual bool isVirtual() const = 0;
};

/** Deterministic jump clock: model time is whatever it was set to. */
class VirtualClock final : public Clock
{
  public:
    explicit VirtualClock(double startH = 0.0) : nowH_(startH) {}

    double nowH() const override { return nowH_; }

    void
    advanceTo(double tH) override
    {
        if (tH > nowH_)
            nowH_ = tH;
    }

    bool isVirtual() const override { return true; }

  private:
    double nowH_;
};

/**
 * Wall clock: model hour h corresponds to the real instant
 * anchor + h * secondsPerHour, where the anchor is the construction
 * time (model hour 0). advanceTo sleeps until the mapped deadline, so
 * an EventLoop on this clock serves events in real time — sped up or
 * slowed down by the scale.
 */
class SteadyClock final : public Clock
{
  public:
    /**
     * @param secondsPerHour wall seconds one model hour takes
     *        (clamped to > 0; 1.0 replays a 40-hour campaign in 40 s)
     */
    explicit SteadyClock(double secondsPerHour = 1.0);

    double nowH() const override;

    void advanceTo(double tH) override;

    bool isVirtual() const override { return false; }

    double secondsPerHour() const { return secondsPerHour_; }

  private:
    double secondsPerHour_;
    std::chrono::steady_clock::time_point anchor_;
};

/**
 * Time-ordered event queue driven by a pluggable Clock.
 *
 * Handlers scheduled for the past (or the present) fire as soon as the
 * loop reaches them, at the clock's current time — the loop clamps
 * rather than rejects, because under a wall clock "now" moves while
 * the caller computes. Deterministic-simulation users who want a hard
 * error on past timestamps keep it in their wrapper (see
 * sim/event_queue.h).
 */
class EventLoop
{
  public:
    using Handler = std::function<void()>;

    /** @param clock time source; not owned, must outlive the loop */
    explicit EventLoop(Clock &clock) : clock_(clock) {}

    Clock &clock() { return clock_; }
    const Clock &clock() const { return clock_; }

    /** Current model time in hours (the clock's). */
    double now() const { return clock_.nowH(); }

    /**
     * Schedule @p fn to run @p delayH hours from now (< 0 clamps).
     * @return an event id usable with cancel().
     */
    uint64_t schedule(double delayH, Handler fn);

    /**
     * Schedule @p fn at model time @p timeH (the past clamps to now).
     * @return an event id usable with cancel().
     */
    uint64_t scheduleAt(double timeH, Handler fn);

    /**
     * Revoke a pending event by id. A cancelled event never fires and
     * never advances the clock (under a wall clock the loop never
     * sleeps for it). Cancelling an id that already fired or was
     * already cancelled is a no-op.
     * @return true when the event was pending and is now cancelled
     */
    bool cancel(uint64_t id);

    /** Run until the event queue drains. */
    void run();

    /**
     * Run until the event queue drains or model time would pass
     * @p limitH; events beyond the limit stay queued, and the clock is
     * advanced to @p limitH when the queue drains early.
     */
    void runUntil(double limitH);

    /** Number of events executed so far. */
    uint64_t processed() const { return processed_; }

    /** true when no live (uncancelled) events are pending. */
    bool empty() const { return liveIds_.empty(); }

    /** Live (scheduled, not fired, not cancelled) events. */
    std::size_t pending() const { return liveIds_.size(); }

    /**
     * Model hour of the earliest pending event; +infinity when the
     * queue is empty. Chaos/test harnesses use this to aim fault
     * injections at the window a drain is about to execute. May report
     * a cancelled event's hour until the loop next purges its top —
     * fine for aiming heuristics, don't treat it as exact.
     */
    double nextTimeH() const
    {
        return queue_.empty()
                   ? std::numeric_limits<double>::infinity()
                   : queue_.top().time;
    }

  private:
    struct Event
    {
        double time;
        uint64_t seq;
        Handler fn;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    void fireTop();
    void purgeCancelledTop();
    void drainCancelled();

    Clock &clock_;
    uint64_t nextSeq_ = 0;
    uint64_t processed_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::unordered_set<uint64_t> liveIds_;
    std::unordered_set<uint64_t> cancelled_;
};

} // namespace eqc

#endif // EQC_COMMON_EVENT_LOOP_H
