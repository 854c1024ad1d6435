/* Compiled DES hot core: the event-drain loop and the tracer's interval
 * sink as a hand-written CPython extension.
 *
 * This is the optional fast path selected by REPRO_COMPILED (see
 * repro/simulator/hotcore.py).  It must be *bit-identical* to the pure
 * Python implementation it mirrors:
 *
 *   - HotEngine pops events in the same (time, sequence) order as
 *     heapq over (time, seq, callback) tuples -- sequences are unique,
 *     so lexicographic (time, seq) is the exact tuple order.
 *   - The Compute fast path performs the same float additions in the
 *     same order on the same metrics dict (first-touch insertion order
 *     matches defaultdict __missing__), and raises SimulationError with
 *     the same messages at the same boundaries.
 *   - Anything that is not a Compute advance bounces back to the
 *     interpreter: CPU._handle_slow_op for blocking ops and
 *     CPU._finish for thread completion, so scheduler semantics have a
 *     single home in cpu.py.
 *
 * IntervalSink is the C twin of
 * repro.observability.ringbuffer.PyIntervalSink: flat (t0, t1, meta)
 * columns with an identity-memoized key intern, snapshotted as three
 * bytes buffers that the decoder reads in place.  The engine's Compute
 * path appends to it without re-entering the interpreter, which is
 * where the "near-zero observer cost" of the ring tracer comes from.
 * Both sinks decode to the traces pinned in
 * tests/fixtures/trace_digests.json.
 *
 * Scheduler state (cores, threads, run queue) stays in Python objects;
 * the extension only caches references and reads attributes.  A
 * pure-engine run can record into the C sink, but HotEngine records only
 * into it: the two come from this one module, so a tracer built while
 * HotEngine is importable always holds an IntervalSink.
 *
 * Every name, module and message this file shares with Python comes
 * from _hotcore_contract.h, which scripts/build_hotcore.py renders from
 * the contract table in repro/simulator/hotcore.py: the only string
 * literals here are argument formats, CPython's argument-count text and
 * docstrings.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include "_hotcore_contract.h"

/* ---------------------------------------------------------------------
 * Interned attribute names and the SimulationError class, resolved once
 * at module init.
 * ------------------------------------------------------------------- */

#define DECLARE_NAME(var, text) static PyObject *var;
HC_ATTRIBUTES(DECLARE_NAME)
#undef DECLARE_NAME
static PyObject *SimulationError;

/* =====================================================================
 * IntervalSink
 * =================================================================== */

typedef struct {
    PyObject_HEAD
    double *t0;
    double *t1;
    long long *meta;
    Py_ssize_t n;
    Py_ssize_t cap;
    PyObject *codes;  /* dict: key tuple -> int code */
    PyObject *keys;   /* list: key tuples in code order */
    PyObject *memo_f; /* identity memo of the last interned key */
    PyObject *memo_l;
    PyObject *memo_k;
    PyObject *memo_t;
    long long memo_code;
} SinkObject;

static PyTypeObject SinkType;

static int
sink_grow(SinkObject *self)
{
    Py_ssize_t cap = self->cap * 2;
    double *t0 = PyMem_Realloc(self->t0, (size_t)cap * sizeof(double));
    if (t0 == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->t0 = t0;
    double *t1 = PyMem_Realloc(self->t1, (size_t)cap * sizeof(double));
    if (t1 == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->t1 = t1;
    long long *meta =
        PyMem_Realloc(self->meta, (size_t)cap * sizeof(long long));
    if (meta == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->meta = meta;
    self->cap = cap;
    return 0;
}

/* The shared record core: called by the Python-visible method and
 * directly (C to C) by the engine's Compute fast path. */
static int
sink_record_core(SinkObject *self, PyObject *context, double t0, double t1,
                 PyObject *f, PyObject *l, PyObject *k)
{
    PyObject *tag = PyObject_GetAttr(context, str_tag);
    if (tag == NULL) {
        return -1;
    }
    long long code;
    if (f == self->memo_f && l == self->memo_l && k == self->memo_k &&
        tag == self->memo_t) {
        code = self->memo_code;
    }
    else {
        PyObject *key = PyTuple_Pack(4, f, l, k, tag);
        if (key == NULL) {
            Py_DECREF(tag);
            return -1;
        }
        PyObject *code_obj = PyDict_GetItemWithError(self->codes, key);
        if (code_obj != NULL) {
            code = PyLong_AsLongLong(code_obj);
            if (code == -1 && PyErr_Occurred()) {
                Py_DECREF(key);
                Py_DECREF(tag);
                return -1;
            }
        }
        else {
            if (PyErr_Occurred()) {
                Py_DECREF(key);
                Py_DECREF(tag);
                return -1;
            }
            code = (long long)PyList_GET_SIZE(self->keys);
            if (code > SINK_CODE_MASK) {
                PyErr_SetString(PyExc_OverflowError, HC_ERR_CODE_SPACE_FULL);
                Py_DECREF(key);
                Py_DECREF(tag);
                return -1;
            }
            code_obj = PyLong_FromLongLong(code);
            if (code_obj == NULL ||
                PyDict_SetItem(self->codes, key, code_obj) < 0 ||
                PyList_Append(self->keys, key) < 0) {
                Py_XDECREF(code_obj);
                Py_DECREF(key);
                Py_DECREF(tag);
                return -1;
            }
            Py_DECREF(code_obj);
        }
        Py_DECREF(key);
        Py_INCREF(f);
        Py_XSETREF(self->memo_f, f);
        Py_INCREF(l);
        Py_XSETREF(self->memo_l, l);
        Py_INCREF(k);
        Py_XSETREF(self->memo_k, k);
        Py_INCREF(tag);
        Py_XSETREF(self->memo_t, tag);
        self->memo_code = code;
    }
    Py_DECREF(tag);

    PyObject *packed_obj = PyObject_GetAttr(context, str_packed);
    if (packed_obj == NULL) {
        return -1;
    }
    long long packed = PyLong_AsLongLong(packed_obj);
    Py_DECREF(packed_obj);
    if (packed == -1 && PyErr_Occurred()) {
        return -1;
    }
    Py_ssize_t i = self->n;
    if (i == self->cap && sink_grow(self) < 0) {
        return -1;
    }
    self->t0[i] = t0;
    self->t1[i] = t1;
    self->meta[i] = packed | code;
    self->n = i + 1;
    return 0;
}

static PyObject *
sink_record(SinkObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "record() takes exactly 6 arguments "
                        "(context, start, end, functionality, leaf, kind)");
        return NULL;
    }
    double t0 = PyFloat_AsDouble(args[1]);
    if (t0 == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    double t1 = PyFloat_AsDouble(args[2]);
    if (t1 == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (sink_record_core(self, args[0], t0, t1, args[3], args[4], args[5]) <
        0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
sink_keys(SinkObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyList_GetSlice(self->keys, 0, PyList_GET_SIZE(self->keys));
}

static PyObject *
sink_snapshot(SinkObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t n = self->n;
    return Py_BuildValue("(y#y#y#)", (const char *)self->t0,
                         n * (Py_ssize_t)sizeof(double),
                         (const char *)self->t1,
                         n * (Py_ssize_t)sizeof(double),
                         (const char *)self->meta,
                         n * (Py_ssize_t)sizeof(long long));
}

static Py_ssize_t
sink_length(SinkObject *self)
{
    return self->n;
}

static PyObject *
sink_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {HC_CAPACITY, NULL};
    Py_ssize_t capacity = SINK_DEFAULT_CAPACITY;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|n", kwlist, &capacity)) {
        return NULL;
    }
    if (capacity < 2) {
        capacity = 2;
    }
    SinkObject *self = (SinkObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->t0 = PyMem_Malloc((size_t)capacity * sizeof(double));
    self->t1 = PyMem_Malloc((size_t)capacity * sizeof(double));
    self->meta = PyMem_Malloc((size_t)capacity * sizeof(long long));
    self->codes = PyDict_New();
    self->keys = PyList_New(0);
    if (self->t0 == NULL || self->t1 == NULL || self->meta == NULL ||
        self->codes == NULL || self->keys == NULL) {
        Py_DECREF(self);
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
        return NULL;
    }
    self->n = 0;
    self->cap = capacity;
    self->memo_f = self->memo_l = self->memo_k = self->memo_t = NULL;
    self->memo_code = 0;
    return (PyObject *)self;
}

static int
sink_traverse(SinkObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->codes);
    Py_VISIT(self->keys);
    Py_VISIT(self->memo_f);
    Py_VISIT(self->memo_l);
    Py_VISIT(self->memo_k);
    Py_VISIT(self->memo_t);
    return 0;
}

static int
sink_clear(SinkObject *self)
{
    Py_CLEAR(self->codes);
    Py_CLEAR(self->keys);
    Py_CLEAR(self->memo_f);
    Py_CLEAR(self->memo_l);
    Py_CLEAR(self->memo_k);
    Py_CLEAR(self->memo_t);
    return 0;
}

static void
sink_dealloc(SinkObject *self)
{
    PyObject_GC_UnTrack(self);
    sink_clear(self);
    PyMem_Free(self->t0);
    PyMem_Free(self->t1);
    PyMem_Free(self->meta);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef sink_methods[] = {
    {HC_RECORD, (PyCFunction)(void (*)(void))sink_record, METH_FASTCALL,
     "record(context, start, end, functionality, leaf, kind)\n"
     "Append one attributed interval for *context*."},
    {HC_KEYS, (PyCFunction)sink_keys, METH_NOARGS,
     "The interned key table, in code order."},
    {HC_SNAPSHOT, (PyCFunction)sink_snapshot, METH_NOARGS,
     "The live columns, trimmed to the append count, as three bytes "
     "objects of native float64, float64 and int64."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods sink_as_sequence = {
    .sq_length = (lenfunc)sink_length,
};

static PyTypeObject SinkType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = HC_TP(HC_INTERVALSINK),
    .tp_basicsize = sizeof(SinkObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Flat (t0, t1, meta) interval columns with key interning; "
              "the C twin of repro.observability.ringbuffer.PyIntervalSink.",
    .tp_new = sink_new,
    .tp_dealloc = (destructor)sink_dealloc,
    .tp_traverse = (traverseproc)sink_traverse,
    .tp_clear = (inquiry)sink_clear,
    .tp_methods = sink_methods,
    .tp_as_sequence = &sink_as_sequence,
};

/* =====================================================================
 * HotEngine
 * =================================================================== */

typedef struct {
    double time;
    long long seq;
    PyObject *cb;      /* generic callback event, or NULL for advance */
    PyObject *core;    /* advance events only */
    PyObject *thread;  /* advance events only */
    PyObject *binding; /* owning BoundAdvance, advance events only */
} Event;

typedef struct {
    PyObject_HEAD
    Event *heap;
    Py_ssize_t size;
    Py_ssize_t cap;
    double now;
    long long seq;
    long long processed;
    PyObject *compute_type; /* loaded at first bind_cpu() */
} EngineObject;

/* One CPU's hot references, created by bind_cpu().  An engine can host
 * several CPUs (the topology simulator runs every service on one shared
 * engine), so the per-CPU state lives here, not on the engine, and each
 * native advance event carries its binding. */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *cpu;
    PyObject *metrics_cycles;
    PyObject *slow_op;   /* cpu._handle_slow_op */
    PyObject *finish_cb; /* cpu._finish */
} BindingObject;

static int
engine_advance_core(EngineObject *self, BindingObject *binding,
                    PyObject *core, PyObject *thread);

static int
binding_traverse(BindingObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->cpu);
    Py_VISIT(self->metrics_cycles);
    Py_VISIT(self->slow_op);
    Py_VISIT(self->finish_cb);
    return 0;
}

static int
binding_clear(BindingObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->cpu);
    Py_CLEAR(self->metrics_cycles);
    Py_CLEAR(self->slow_op);
    Py_CLEAR(self->finish_cb);
    return 0;
}

static void
binding_dealloc(BindingObject *self)
{
    PyObject_GC_UnTrack(self);
    binding_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The CPU holds this as its ``_advance_fast`` and calls it
 * ``fast(core, thread)`` at assignment/resume boundaries; Compute
 * chains re-enter through the event heap without this call. */
static PyObject *
binding_call(BindingObject *self, PyObject *args, PyObject *kwargs)
{
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "advance() takes no keyword arguments");
        return NULL;
    }
    if (PyTuple_GET_SIZE(args) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "advance() takes exactly 2 arguments (core, thread)");
        return NULL;
    }
    if (self->engine == NULL) {
        PyErr_SetString(SimulationError, HC_ERR_CLEARED_BINDING);
        return NULL;
    }
    if (engine_advance_core(self->engine, self, PyTuple_GET_ITEM(args, 0),
                            PyTuple_GET_ITEM(args, 1)) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyTypeObject BindingType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = HC_TP(HC_BOUNDADVANCE),
    .tp_basicsize = sizeof(BindingObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One CPU's native advance: returned by HotEngine.bind_cpu().",
    .tp_dealloc = (destructor)binding_dealloc,
    .tp_traverse = (traverseproc)binding_traverse,
    .tp_clear = (inquiry)binding_clear,
    .tp_call = (ternaryfunc)binding_call,
};

static inline int
event_lt(const Event *a, const Event *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int
heap_reserve(EngineObject *self)
{
    if (self->size < self->cap) {
        return 0;
    }
    Py_ssize_t cap = self->cap ? self->cap * 2 : 64;
    Event *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(Event));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->cap = cap;
    return 0;
}

/* Push one event; steals no references (INCREFs what it stores). */
static int
heap_push(EngineObject *self, double time, PyObject *cb, PyObject *core,
          PyObject *thread, PyObject *binding)
{
    if (heap_reserve(self) < 0) {
        return -1;
    }
    long long seq = self->seq++;
    Py_ssize_t i = self->size++;
    Event *heap = self->heap;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (time < heap[parent].time ||
            (time == heap[parent].time && seq < heap[parent].seq)) {
            heap[i] = heap[parent];
            i = parent;
        }
        else {
            break;
        }
    }
    heap[i].time = time;
    heap[i].seq = seq;
    Py_XINCREF(cb);
    heap[i].cb = cb;
    Py_XINCREF(core);
    heap[i].core = core;
    Py_XINCREF(thread);
    heap[i].thread = thread;
    Py_XINCREF(binding);
    heap[i].binding = binding;
    return 0;
}

/* Pop the minimum event; caller owns the returned references. */
static Event
heap_pop(EngineObject *self)
{
    Event *heap = self->heap;
    Event top = heap[0];
    Py_ssize_t size = --self->size;
    if (size > 0) {
        Event last = heap[size];
        Py_ssize_t i = 0;
        Py_ssize_t half = size >> 1;
        while (i < half) {
            Py_ssize_t child = 2 * i + 1;
            if (child + 1 < size && event_lt(&heap[child + 1], &heap[child])) {
                child++;
            }
            if (event_lt(&heap[child], &last)) {
                heap[i] = heap[child];
                i = child;
            }
            else {
                break;
            }
        }
        heap[i] = last;
    }
    return top;
}

static void
event_clear_refs(Event *event)
{
    Py_XDECREF(event->cb);
    Py_XDECREF(event->core);
    Py_XDECREF(event->thread);
    Py_XDECREF(event->binding);
}

/* The Compute fast path: one generator resumption, one metrics update,
 * one gated trace append, one native reschedule.  Mirrors the Compute
 * branch of CPU._advance line for line. */
static int
engine_advance_core(EngineObject *self, BindingObject *binding,
                    PyObject *core, PyObject *thread)
{
    PyObject *current = PyObject_GetAttr(core, str_current);
    if (current == NULL) {
        return -1;
    }
    if (current != thread) {
        Py_DECREF(current);
        PyErr_Format(SimulationError, HC_ERR_FOREIGN_ADVANCE, thread, core);
        return -1;
    }
    Py_DECREF(current);

    PyObject *body = PyObject_GetAttr(thread, str_body);
    if (body == NULL) {
        return -1;
    }
    if (!PyIter_Check(body)) {
        PyErr_Format(PyExc_TypeError, HC_ERR_NOT_ITERATOR,
                     Py_TYPE(body)->tp_name);
        Py_DECREF(body);
        return -1;
    }
    PyObject *op = (*Py_TYPE(body)->tp_iternext)(body);
    Py_DECREF(body);
    if (op == NULL) {
        if (PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_StopIteration)) {
                return -1;
            }
            PyErr_Clear();
        }
        PyObject *args[2] = {core, thread};
        PyObject *result =
            PyObject_Vectorcall(binding->finish_cb, args, 2, NULL);
        if (result == NULL) {
            return -1;
        }
        Py_DECREF(result);
        return 0;
    }

    int is_compute = ((PyObject *)Py_TYPE(op) == self->compute_type);
    if (!is_compute) {
        is_compute = PyObject_IsInstance(op, self->compute_type);
        if (is_compute < 0) {
            Py_DECREF(op);
            return -1;
        }
    }
    if (!is_compute) {
        PyObject *args[3] = {core, thread, op};
        PyObject *result =
            PyObject_Vectorcall(binding->slow_op, args, 3, NULL);
        Py_DECREF(op);
        if (result == NULL) {
            return -1;
        }
        Py_DECREF(result);
        return 0;
    }

    PyObject *cycles_obj = PyObject_GetAttr(op, str_cycles);
    if (cycles_obj == NULL) {
        Py_DECREF(op);
        return -1;
    }
    double cycles = PyFloat_AsDouble(cycles_obj);
    if (cycles == -1.0 && PyErr_Occurred()) {
        goto fail_cycles;
    }
    if (cycles < 0) {
        PyErr_Format(SimulationError, HC_ERR_NEGATIVE_CYCLES, cycles_obj);
        goto fail_cycles;
    }

    /* The op's (functionality, leaf, kind) tuple, built once with it. */
    PyObject *key = PyObject_GetAttr(op, str_key);
    if (key == NULL) {
        goto fail_cycles;
    }

    /* metrics.cycles[key] += cycles -- same first-touch insertion
     * order as defaultdict(float).__missing__, values always float. */
    PyObject *existing =
        PyDict_GetItemWithError(binding->metrics_cycles, key);
    double total = cycles;
    if (existing != NULL) {
        double old = PyFloat_AsDouble(existing);
        if (old == -1.0 && PyErr_Occurred()) {
            goto fail_key;
        }
        total = old + cycles;
    }
    else if (PyErr_Occurred()) {
        goto fail_key;
    }
    PyObject *total_obj = PyFloat_FromDouble(total);
    if (total_obj == NULL ||
        PyDict_SetItem(binding->metrics_cycles, key, total_obj) < 0) {
        Py_XDECREF(total_obj);
        goto fail_key;
    }
    Py_DECREF(total_obj);

    /* Gated trace hook (zero-observer: write-only, no scheduling). */
    PyObject *trace = PyObject_GetAttr(binding->cpu, str_trace);
    if (trace == NULL) {
        goto fail_key;
    }
    if (trace != Py_None) {
        PyObject *ctx = PyObject_GetAttr(thread, str_trace_ctx);
        if (ctx == NULL) {
            Py_DECREF(trace);
            goto fail_key;
        }
        if (ctx != Py_None) {
            double end = self->now + cycles;
            /* trace.record_interval is the sink's record; HotEngine
             * calls the C sink's directly. */
            PyObject *sink = PyObject_GetAttr(trace, str_sink);
            if (sink != NULL && Py_TYPE(sink) != &SinkType) {
                PyErr_Format(PyExc_TypeError, HC_ERR_FOREIGN_SINK,
                             str_record_interval, Py_TYPE(sink)->tp_name);
                Py_CLEAR(sink);
            }
            /* Borrowed from the key, which outlives the record. */
            PyObject *f = sink ? PyTuple_GetItem(key, 0) : NULL;
            PyObject *l = f ? PyTuple_GetItem(key, 1) : NULL;
            PyObject *k = l ? PyTuple_GetItem(key, 2) : NULL;
            if (k == NULL) {
                Py_XDECREF(sink);
                Py_DECREF(ctx);
                Py_DECREF(trace);
                goto fail_key;
            }
            /* C to C: the ring tracer's interval sink. */
            if (sink_record_core((SinkObject *)sink, ctx, self->now, end,
                                 f, l, k) < 0) {
                Py_DECREF(sink);
                Py_DECREF(ctx);
                Py_DECREF(trace);
                goto fail_key;
            }
            Py_DECREF(sink);
        }
        Py_DECREF(ctx);
    }
    Py_DECREF(trace);

    /* Native reschedule: the typed advance event needs no callback. */
    if (heap_push(self, self->now + cycles, NULL, core, thread,
                  (PyObject *)binding) < 0) {
        goto fail_key;
    }
    Py_DECREF(key);
    Py_DECREF(cycles_obj);
    Py_DECREF(op);
    return 0;

fail_key:
    Py_DECREF(key);
fail_cycles:
    Py_DECREF(cycles_obj);
    Py_DECREF(op);
    return -1;
}

/* Dispatch one popped event; consumes the event's references. */
static int
engine_dispatch(EngineObject *self, Event *event)
{
    int status;
    if (event->cb != NULL) {
        PyObject *result = PyObject_CallNoArgs(event->cb);
        if (result == NULL) {
            status = -1;
        }
        else {
            Py_DECREF(result);
            status = 0;
        }
    }
    else if (event->binding != NULL &&
             Py_TYPE(event->binding) == &BindingType) {
        status = engine_advance_core(self, (BindingObject *)event->binding,
                                     event->core, event->thread);
    }
    else {
        PyErr_SetString(SimulationError, HC_ERR_UNBOUND_ADVANCE);
        status = -1;
    }
    event_clear_refs(event);
    return status;
}

/* -- Python-visible methods ------------------------------------------ */

static PyObject *
engine_at(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "at() takes exactly 2 arguments (time, callback)");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (time < self->now) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (now_obj != NULL) {
            PyErr_Format(SimulationError, HC_ERR_PAST_EVENT, args[0],
                         now_obj);
            Py_DECREF(now_obj);
        }
        return NULL;
    }
    if (heap_push(self, time, args[1], NULL, NULL, NULL) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
engine_after(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "after() takes exactly 2 arguments (delay, callback)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (delay < 0) {
        PyErr_Format(SimulationError, HC_ERR_NEGATIVE_DELAY, args[0]);
        return NULL;
    }
    if (heap_push(self, self->now + delay, args[1], NULL, NULL, NULL) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
engine_step(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0) {
        Py_RETURN_FALSE;
    }
    Event event = heap_pop(self);
    self->now = event.time;
    self->processed++;
    if (engine_dispatch(self, &event) < 0) {
        return NULL;
    }
    Py_RETURN_TRUE;
}

static PyObject *
engine_run_until(EngineObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {HC_HORIZON, HC_MAX_EVENTS, NULL};
    PyObject *horizon_obj;
    PyObject *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|O", kwlist,
                                     &horizon_obj, &max_obj)) {
        return NULL;
    }
    double horizon = PyFloat_AsDouble(horizon_obj);
    if (horizon == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (horizon < self->now) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (now_obj != NULL) {
            PyErr_Format(SimulationError, HC_ERR_PAST_HORIZON, horizon_obj,
                         now_obj);
            Py_DECREF(now_obj);
        }
        return NULL;
    }
    long long limit = -1;
    if (max_obj != Py_None) {
        limit = PyLong_AsLongLong(max_obj);
        if (limit == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }
    long long processed = 0;
    while (self->size > 0 && self->heap[0].time <= horizon) {
        if (processed == limit) {
            self->processed += processed;
            PyErr_Format(SimulationError, HC_ERR_MAX_EVENTS, max_obj);
            return NULL;
        }
        Event event = heap_pop(self);
        self->now = event.time;
        processed++;
        if (engine_dispatch(self, &event) < 0) {
            return NULL;
        }
    }
    self->processed += processed;
    self->now = horizon;
    Py_RETURN_NONE;
}

static PyObject *
engine_run_to_completion(EngineObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {HC_MAX_EVENTS, NULL};
    PyObject *max_obj = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O", kwlist, &max_obj)) {
        return NULL;
    }
    long long limit = 10000000;
    if (max_obj != NULL) {
        limit = PyLong_AsLongLong(max_obj);
        if (limit == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }
    long long processed = 0;
    while (self->size > 0) {
        Event event = heap_pop(self);
        self->now = event.time;
        self->processed++;
        if (engine_dispatch(self, &event) < 0) {
            return NULL;
        }
        processed++;
        if (processed > limit) {
            if (max_obj != NULL) {
                PyErr_Format(SimulationError, HC_ERR_MAX_EVENTS, max_obj);
            }
            else {
                PyErr_Format(SimulationError, HC_ERR_MAX_EVENTS_DEFAULT,
                             limit);
            }
            return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
engine_bind_cpu(EngineObject *self, PyObject *cpu)
{
    PyObject *metrics = PyObject_GetAttr(cpu, str_metrics);
    if (metrics == NULL) {
        return NULL;
    }
    PyObject *cycles = PyObject_GetAttr(metrics, str_cycles);
    Py_DECREF(metrics);
    if (cycles == NULL) {
        return NULL;
    }
    if (!PyDict_Check(cycles)) {
        Py_DECREF(cycles);
        PyErr_SetString(PyExc_TypeError, HC_ERR_CYCLES_NOT_DICT);
        return NULL;
    }
    PyObject *cpu_module = PyImport_ImportModule(HC_REPRO_SIMULATOR_CPU);
    if (cpu_module == NULL) {
        Py_DECREF(cycles);
        return NULL;
    }
    PyObject *compute = PyObject_GetAttr(cpu_module, str_Compute);
    Py_DECREF(cpu_module);
    if (compute == NULL) {
        Py_DECREF(cycles);
        return NULL;
    }
    PyObject *slow = PyObject_GetAttr(cpu, str_handle_slow_op);
    PyObject *finish = slow ? PyObject_GetAttr(cpu, str_finish) : NULL;
    if (finish == NULL) {
        Py_XDECREF(slow);
        Py_DECREF(compute);
        Py_DECREF(cycles);
        return NULL;
    }
    BindingObject *binding = PyObject_GC_New(BindingObject, &BindingType);
    if (binding == NULL) {
        Py_DECREF(finish);
        Py_DECREF(slow);
        Py_DECREF(compute);
        Py_DECREF(cycles);
        return NULL;
    }
    Py_INCREF(self);
    binding->engine = self;
    Py_INCREF(cpu);
    binding->cpu = cpu;
    binding->metrics_cycles = cycles;
    binding->slow_op = slow;
    binding->finish_cb = finish;
    PyObject_GC_Track(binding);
    /* compute_type is CPU-independent; cache it engine-wide once. */
    Py_XSETREF(self->compute_type, compute);
    return (PyObject *)binding;
}

/* -- properties ------------------------------------------------------ */

static PyObject *
engine_get_now(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
engine_get_processed(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->processed);
}

static PyObject *
engine_get_pending(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->size);
}

/* -- lifecycle ------------------------------------------------------- */

static PyObject *
engine_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    if ((args != NULL && PyTuple_GET_SIZE(args) > 0) ||
        (kwargs != NULL && PyDict_GET_SIZE(kwargs) > 0)) {
        PyErr_SetString(PyExc_TypeError, "HotEngine() takes no arguments");
        return NULL;
    }
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->heap = NULL;
    self->size = self->cap = 0;
    self->now = 0.0;
    self->seq = 0;
    self->processed = 0;
    self->compute_type = NULL;
    return (PyObject *)self;
}

static int
engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].core);
        Py_VISIT(self->heap[i].thread);
        Py_VISIT(self->heap[i].binding);
    }
    Py_VISIT(self->compute_type);
    return 0;
}

/* Empty the heap and free its storage.  The engine lets go of the old
 * array before releasing any reference: a decref can run arbitrary code
 * that schedules onto this engine, and that lands in a fresh heap. */
static void
engine_drop_events(EngineObject *self)
{
    Event *heap = self->heap;
    Py_ssize_t size = self->size;
    self->heap = NULL;
    self->size = self->cap = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        event_clear_refs(&heap[i]);
    }
    PyMem_Free(heap);
}

static int
engine_clear(EngineObject *self)
{
    engine_drop_events(self);
    Py_CLEAR(self->compute_type);
    return 0;
}

static PyObject *
engine_drop_pending(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    engine_drop_events(self);
    Py_RETURN_NONE;
}

static void
engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    engine_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef engine_methods[] = {
    {HC_AT, (PyCFunction)(void (*)(void))engine_at, METH_FASTCALL,
     "at(time, callback)\nSchedule *callback* at absolute simulated *time*."},
    {HC_AFTER, (PyCFunction)(void (*)(void))engine_after, METH_FASTCALL,
     "after(delay, callback)\nSchedule *callback* after *delay* cycles."},
    {HC_STEP, (PyCFunction)engine_step, METH_NOARGS,
     "Process the next event.  Returns False when the queue is empty."},
    {HC_RUN_UNTIL, (PyCFunction)(void (*)(void))engine_run_until,
     METH_VARARGS | METH_KEYWORDS,
     "run_until(horizon, max_events=None)\n"
     "Run events with time <= *horizon*."},
    {HC_RUN_TO_COMPLETION,
     (PyCFunction)(void (*)(void))engine_run_to_completion,
     METH_VARARGS | METH_KEYWORDS,
     "run_to_completion(max_events=10000000)\n"
     "Drain every queued event (for finite workloads)."},
    {HC_DROP_PENDING, (PyCFunction)engine_drop_pending, METH_NOARGS,
     "Discard every queued event without running it."},
    {HC_BIND_CPU, (PyCFunction)engine_bind_cpu, METH_O,
     "bind_cpu(cpu)\nCache the CPU's hot references in a BoundAdvance and "
     "return it; the CPU delegates its _advance to the returned callable."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {HC_NOW, (getter)engine_get_now, NULL,
     "Current simulated time in host cycles.", NULL},
    {HC_EVENTS_PROCESSED, (getter)engine_get_processed, NULL,
     "Events processed so far.", NULL},
    {HC_PENDING_EVENTS, (getter)engine_get_pending, NULL,
     "Events still queued.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = HC_TP(HC_HOTENGINE),
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled calendar-queue DES engine; drop-in, bit-identical "
              "replacement for repro.simulator.hotcore.PyEngine.",
    .tp_new = engine_new,
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear,
    .tp_methods = engine_methods,
    .tp_getset = engine_getset,
};

/* =====================================================================
 * Module
 * =================================================================== */

static struct PyModuleDef hotcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = HC_EXTENSION,
    .m_doc = "Compiled DES hot core: HotEngine (event drain) and "
             "IntervalSink (flat tracer columns).",
    .m_size = -1,
};

static int
intern_names(void)
{
#define INTERN(var, text)                                                     \
    if ((var = PyUnicode_InternFromString(text)) == NULL) {                   \
        return -1;                                                            \
    }
    HC_ATTRIBUTES(INTERN)
#undef INTERN
    return 0;
}

PyMODINIT_FUNC
PyInit__hotcore(void)
{
    if (intern_names() < 0) {
        return NULL;
    }
    PyObject *errors = PyImport_ImportModule(HC_REPRO_ERRORS);
    if (errors == NULL) {
        return NULL;
    }
    SimulationError = PyObject_GetAttr(errors, str_SimulationError);
    Py_DECREF(errors);
    if (SimulationError == NULL) {
        return NULL;
    }
    if (PyType_Ready(&SinkType) < 0 || PyType_Ready(&EngineType) < 0 ||
        PyType_Ready(&BindingType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&hotcore_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&SinkType);
    if (PyModule_AddObject(module, HC_INTERVALSINK, (PyObject *)&SinkType) <
        0) {
        Py_DECREF(&SinkType);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(module, HC_HOTENGINE, (PyObject *)&EngineType) <
        0) {
        Py_DECREF(&EngineType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
