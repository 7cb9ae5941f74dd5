/**
 * @file
 * Cooperative cancellation implementation.
 */

#include "util/cancellation.hh"

namespace gemstone {

namespace {

thread_local CoopScope *currentScope = nullptr;

} // namespace

CoopScope::CoopScope(CancellationToken token, Deadline deadline,
                     const char *what)
    : cancelToken(std::move(token)), runDeadline(deadline),
      label(what), previous(currentScope)
{
    currentScope = this;
}

CoopScope::~CoopScope()
{
    currentScope = previous;
}

void
coopCheckpoint()
{
    for (CoopScope *scope = currentScope; scope != nullptr;
         scope = scope->previous) {
        scope->cancelToken.throwIfCancelled(scope->label);
        scope->runDeadline.throwIfExpired(scope->label);
    }
}

bool
coopScopeActive()
{
    return currentScope != nullptr;
}

} // namespace gemstone
