// Per-request causal trace context.
//
// A RequestTraceContext names the causal position of the work a region
// step runs: the root of its span tree and its immediate causal parent.
// RunSharedCore and the server's step set one before each ProcessRegion,
// so the pipeline's join/eval/discard/emission spans parent under the
// step's umbrella "process_region" span. Request-scoped spans
// (request, admission, graft, retire) and the audit ledger's records carry
// span ids kept in the request state — together they reconstruct one
// connected causal tree per request (see DESIGN.md §15).
//
// The context is plain data: copying it is two words, and a
// default-constructed context means "no attribution" (batch runs without
// spans, engine warm-up). It never feeds a deterministic decision — like
// every obs structure it is write-only from the engine's point of view.
#ifndef CAQE_OBS_TRACE_CONTEXT_H_
#define CAQE_OBS_TRACE_CONTEXT_H_

#include <cstdint>

namespace caqe {

struct RequestTraceContext {
  /// Span id of the tree root ("request" span, or the umbrella
  /// "process_region" span for shared work); 0 = unattributed.
  uint64_t root_span = 0;
  /// Span id of the immediate causal parent; 0 = unattributed.
  uint64_t parent_span = 0;
};

}  // namespace caqe

#endif  // CAQE_OBS_TRACE_CONTEXT_H_
