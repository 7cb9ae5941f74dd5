/**
 * @file
 * Cooperative cancellation and deadlines for long campaigns.
 *
 * A CancellationToken is a shared flag: anything holding a copy can
 * request cancellation (including a signal handler — the flag is a
 * plain atomic store) and anything polling it stops at its next
 * checkpoint. A Deadline bounds one run in wall-clock time. Neither
 * preempts anything: the simulation loops poll a thread-local
 * cooperative scope (CoopScope) every few thousand simulated
 * instructions, so an in-flight campaign stops in bounded time and a
 * runaway run becomes a structured deadline_exceeded failure instead
 * of hanging its worker.
 *
 * Propagation is by value: tokens are cheap shared_ptr copies, so a
 * CampaignConfig, a RunnerConfig, a ThreadPool and a signal handler
 * can all hold the same flag. CoopScopes nest (a campaign scope
 * around a runner scope); a checkpoint poll walks the whole chain,
 * so an outer armed scope is never masked by an inner inert one.
 */

#ifndef GEMSTONE_UTIL_CANCELLATION_HH
#define GEMSTONE_UTIL_CANCELLATION_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "util/status.hh"

namespace gemstone {

/** Thrown when a cancellation request interrupts cooperative work. */
class CancelledError : public StatusError
{
  public:
    explicit CancelledError(const std::string &message)
        : StatusError(StatusCode::Cancelled, message)
    {
    }
};

/** Thrown when a deadline expires inside cooperative work. */
class DeadlineError : public StatusError
{
  public:
    explicit DeadlineError(const std::string &message)
        : StatusError(StatusCode::DeadlineExceeded, message)
    {
    }
};

/**
 * Shared cancellation flag. Copies share state; a default-constructed
 * token owns a fresh (never-cancelled) flag, so embedding one in a
 * config struct costs nothing until someone keeps a copy and cancels
 * it. requestCancel() is an atomic store and therefore safe from a
 * signal handler that reaches the flag through rawFlag().
 */
class CancellationToken
{
  public:
    CancellationToken()
        : state(std::make_shared<std::atomic<bool>>(false))
    {
    }

    /** Ask all holders of this token to stop at their next poll. */
    void
    requestCancel()
    {
        state->store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return state->load(std::memory_order_acquire);
    }

    /** Throw CancelledError when cancellation has been requested. */
    void
    throwIfCancelled(const char *what = "operation") const
    {
        if (cancelled())
            throw CancelledError(std::string(what) + " cancelled");
    }

    /**
     * The underlying flag, for async-signal-safe cancellation. The
     * caller must keep a token copy alive for as long as the pointer
     * is retained (see util/signals.hh).
     */
    std::atomic<bool> *rawFlag() const { return state.get(); }

  private:
    std::shared_ptr<std::atomic<bool>> state;
};

/**
 * A wall-clock bound on one run. Default-constructed deadlines are
 * unlimited; after(seconds) expires that far from now (0 or negative
 * expires immediately, which tests use for a deterministic trip).
 */
class Deadline
{
  public:
    /** No limit. */
    Deadline() = default;

    static Deadline
    after(double seconds)
    {
        Deadline d;
        d.hasLimit = true;
        d.expiry = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
        return d;
    }

    bool limited() const { return hasLimit; }

    bool
    expired() const
    {
        return hasLimit && std::chrono::steady_clock::now() >= expiry;
    }

    /** Throw DeadlineError when the deadline has passed. */
    void
    throwIfExpired(const char *what = "operation") const
    {
        if (expired())
            throw DeadlineError(std::string(what) +
                                " exceeded its deadline");
    }

  private:
    bool hasLimit = false;
    std::chrono::steady_clock::time_point expiry;
};

/**
 * Installs a (token, deadline) pair as the current thread's
 * cooperative context for its lifetime; scopes nest and restore the
 * previous context on destruction. The simulation loops call
 * coopCheckpoint(), which throws CancelledError / DeadlineError on
 * behalf of any scope in the chain.
 */
class CoopScope
{
  public:
    CoopScope(CancellationToken token, Deadline deadline,
              const char *what = "run");
    ~CoopScope();

    CoopScope(const CoopScope &) = delete;
    CoopScope &operator=(const CoopScope &) = delete;

  private:
    friend void coopCheckpoint();

    CancellationToken cancelToken;
    Deadline runDeadline;
    const char *label;
    CoopScope *previous;
};

/**
 * Cooperative checkpoint: with no scope installed this is a single
 * thread-local load, cheap enough for inner simulation loops.
 * Otherwise it polls every scope in the chain and throws
 * CancelledError or DeadlineError for the innermost violated one.
 */
void coopCheckpoint();

/** True when any cooperative scope is installed on this thread. */
bool coopScopeActive();

} // namespace gemstone

#endif // GEMSTONE_UTIL_CANCELLATION_HH
