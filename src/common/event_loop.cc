#include "common/event_loop.h"

#include <thread>

namespace eqc {

SteadyClock::SteadyClock(double secondsPerHour)
    : secondsPerHour_(secondsPerHour > 0.0 ? secondsPerHour : 1.0),
      anchor_(std::chrono::steady_clock::now())
{
}

double
SteadyClock::nowH() const
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - anchor_;
    return elapsed.count() / secondsPerHour_;
}

void
SteadyClock::advanceTo(double tH)
{
    const auto deadline =
        anchor_ + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(tH * secondsPerHour_));
    if (deadline > std::chrono::steady_clock::now())
        std::this_thread::sleep_until(deadline);
}

uint64_t
EventLoop::schedule(double delayH, Handler fn)
{
    return scheduleAt(now() + (delayH > 0.0 ? delayH : 0.0),
                      std::move(fn));
}

uint64_t
EventLoop::scheduleAt(double timeH, Handler fn)
{
    const double nowH = now();
    if (timeH < nowH)
        timeH = nowH;
    const uint64_t id = nextSeq_++;
    queue_.push(Event{timeH, id, std::move(fn)});
    liveIds_.insert(id);
    return id;
}

bool
EventLoop::cancel(uint64_t id)
{
    if (liveIds_.erase(id) == 0)
        return false; // unknown, already fired, or already cancelled
    cancelled_.insert(id);
    return true;
}

void
EventLoop::fireTop()
{
    // Move the handler out before popping mutates the heap, and pop
    // before firing: the handler may schedule (or run) further events.
    Event e = std::move(const_cast<Event &>(queue_.top()));
    queue_.pop();
    liveIds_.erase(e.seq);
    clock_.advanceTo(e.time);
    ++processed_;
    e.fn();
}

void
EventLoop::purgeCancelledTop()
{
    // Discard cancelled events sitting at the head WITHOUT advancing
    // the clock: a cancelled far-future deadline must never drag model
    // time forward (or sleep, under a wall clock).
    while (!queue_.empty() && cancelled_.erase(queue_.top().seq) > 0)
        queue_.pop();
}

void
EventLoop::drainCancelled()
{
    // Live events are gone; whatever remains queued is cancelled husks.
    while (!queue_.empty())
        queue_.pop();
    cancelled_.clear();
}

void
EventLoop::run()
{
    while (!liveIds_.empty()) {
        purgeCancelledTop();
        fireTop();
    }
    drainCancelled();
}

void
EventLoop::runUntil(double limitH)
{
    purgeCancelledTop();
    while (!liveIds_.empty() && queue_.top().time <= limitH) {
        fireTop();
        purgeCancelledTop();
    }
    if (liveIds_.empty()) {
        drainCancelled();
        clock_.advanceTo(limitH);
    }
}

} // namespace eqc
