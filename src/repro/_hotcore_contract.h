/* The contract of _hotcore.c with its Python twins: generated from
 * repro.simulator.hotcore and repro.observability.ringbuffer by
 * scripts/build_hotcore.py.  Do not edit; rerun the script. */

#ifndef REPRO_HOTCORE_CONTRACT_H
#define REPRO_HOTCORE_CONTRACT_H

/* Packed interval layout. */
#define SINK_CODE_BITS 21
#define SINK_CODE_MASK 2097151LL
#define SINK_DEFAULT_CAPACITY 16384

/* Interned attribute names: X(variable, text). */
#define HC_ATTRIBUTES(X) \
    X(str_current, "current") \
    X(str_body, "body") \
    X(str_trace_ctx, "trace_ctx") \
    X(str_cycles, "cycles") \
    X(str_key, "key") \
    X(str_Compute, "Compute") \
    X(str_trace, "trace") \
    X(str_metrics, "metrics") \
    X(str_handle_slow_op, "_handle_slow_op") \
    X(str_finish, "_finish") \
    X(str_record_interval, "record_interval") \
    X(str_sink, "_sink") \
    X(str_tag, "tag") \
    X(str_packed, "packed") \
    X(str_SimulationError, "SimulationError")

/* The extension, the modules it imports, the names it exposes. */
#define HC_EXTENSION "repro._hotcore"
#define HC_TP(name) HC_EXTENSION "." name
#define HC_REPRO_SIMULATOR_CPU "repro.simulator.cpu"
#define HC_REPRO_ERRORS "repro.errors"
#define HC_RECORD "record"
#define HC_KEYS "keys"
#define HC_SNAPSHOT "snapshot"
#define HC_CAPACITY "capacity"
#define HC_AT "at"
#define HC_AFTER "after"
#define HC_STEP "step"
#define HC_RUN_UNTIL "run_until"
#define HC_RUN_TO_COMPLETION "run_to_completion"
#define HC_DROP_PENDING "drop_pending"
#define HC_NOW "now"
#define HC_EVENTS_PROCESSED "events_processed"
#define HC_PENDING_EVENTS "pending_events"
#define HC_HORIZON "horizon"
#define HC_MAX_EVENTS "max_events"
#define HC_BIND_CPU "bind_cpu"
#define HC_INTERVALSINK "IntervalSink"
#define HC_HOTENGINE "HotEngine"
#define HC_BOUNDADVANCE "BoundAdvance"

/* Error messages. */
#define HC_ERR_FOREIGN_ADVANCE "%S advanced on foreign %S"
#define HC_ERR_NEGATIVE_CYCLES "cannot compute negative cycles: %S"
#define HC_ERR_PAST_EVENT "cannot schedule event in the past (%S < %S)"
#define HC_ERR_NEGATIVE_DELAY "delay must be non-negative, got %S"
#define HC_ERR_PAST_HORIZON "horizon %S is before current time %S"
#define HC_ERR_MAX_EVENTS "exceeded max_events = %S; likely a zero-delay event loop"
#define HC_ERR_MAX_EVENTS_DEFAULT "exceeded max_events = %lld; likely a zero-delay event loop"
#define HC_ERR_CLEARED_BINDING "advance on a cleared binding"
#define HC_ERR_UNBOUND_ADVANCE "advance event without a binding"
#define HC_ERR_FOREIGN_SINK "%S: HotEngine records only into the compiled IntervalSink, not %.200s"
#define HC_ERR_NOT_ITERATOR "'%.200s' object is not an iterator"
#define HC_ERR_CYCLES_NOT_DICT "cpu.metrics.cycles must be a dict subclass"
#define HC_ERR_CODE_SPACE_FULL "interval attribution keys exceed the packed code space"

#endif
