"""Spans and counters around recset's public functions, from outside the package.

`Tracer.install()` replaces every public function of the traced modules, at
every name it is bound to in any loaded `recset` module, with a wrapper.  A
disabled wrapper only forwards the call.  An enabled one records a span
(job, id, parent, name, start, duration) in memory and adds its duration to
the parent's child time, so self time = duration - children.  Generator
functions get one span for their whole life, summed over the `next` calls.
`subset_step` runs millions of times a pass, so it is counted but not timed;
its time stays in its caller's self time.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("automata", "lengths", "numeration", "fileformat", "witnesses", "cli")
COUNT_ONLY = {"lengths.subset_step"}
MAX_SPANS = 300_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = 0
        self.stack: list = []          # [name, start, child_time, span_id]
        self.spans: list = []
        self.dropped = 0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_period = 0
        self._fingerprints: dict = {}  # id(dfa) -> (dfa, fingerprint), per job
        self._profile_keys: set = set()
        self._minimize_keys: set = set()
        self._next_id = 0

    # -- bookkeeping -------------------------------------------------------

    def start_job(self, index: int) -> None:
        self.job = index
        self._fingerprints.clear()

    def _fingerprint(self, dfa) -> tuple:
        hit = self._fingerprints.get(id(dfa))
        if hit is None:
            fp = (dfa.alphabet_size, dfa.state_count, dfa.initial,
                  hash(dfa.finals), hash(frozenset(dfa.transitions.items())))
            hit = self._fingerprints[id(dfa)] = (dfa, fp)
        return hit[1]

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [name, perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, duration: float, extra: float = 0.0) -> None:
        self.stack.pop()
        name = frame[0]
        self.self_time[name] += duration - frame[2]
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            # bookkeeping time is hidden from the parent as well
            parent[2] += duration + extra
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.job, frame[3], parent[3] if parent else 0,
                               name, frame[1], duration, duration - frame[2]))
        else:
            self.dropped += 1

    def _observe(self, name, args, kwargs, result, error) -> None:
        c = self.counts
        if name == "lengths.length_profile":
            self._profile_keys.add((self.job, self._fingerprint(args[0]), args[1]))
            if result is not None:
                self.max_period = max(self.max_period, result.period)
        elif name == "automata.minimize":
            self._minimize_keys.add((self.job, self._fingerprint(args[0])))
            c["minimize_states_in"] += args[0].state_count
            if result is not None:
                c["minimize_states_out"] += result.state_count
        elif name == "numeration.kronecker_witness":
            if result is not None:
                c["kronecker_ell_tried"] += result.ell
            elif getattr(error, "cap", None):
                c["kronecker_ell_tried"] += error.cap
        elif name == "fileformat.read_automaton":
            path = args[0] if args else kwargs.get("path")
            try:
                c["bytes_read"] += os.path.getsize(path)
            except OSError:
                pass
            if result is not None:
                c["states_declared"] += result.dfa.state_count

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer._traced_iter(fn(*args, **kwargs), name)
            return generator

        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = perf_counter()
                tracer._observe(name, args, kwargs, result, error)
                tracer._close(frame, end - frame[1], perf_counter() - end)
        return timed

    def _traced_iter(self, gen, name: str):
        """One span for the generator's life: the sum of its `next` calls,
        each charged to whichever span consumed the element."""
        self._next_id += 1
        span_id, first, total, child, yielded = self._next_id, None, 0.0, 0.0, 0
        try:
            while True:
                frame = [name, perf_counter(), 0.0, span_id]
                first = first if first is not None else frame[1]
                self.stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - frame[1]
                    self.stack.pop()
                    total += duration
                    child += frame[2]
                    if self.stack:
                        self.stack[-1][2] += duration
                yielded += 1
                yield item
        finally:
            gen.close()
            self.self_time[name] += total - child
            self.calls[name] += 1
            self.counts["elements_yielded"] += yielded
            parent = self.stack[-1][3] if self.stack else 0
            if first is not None and len(self.spans) < MAX_SPANS:
                self.spans.append((self.job, span_id, parent, name, first, total, total - child))

    def install(self) -> None:
        """Wrap the public functions of every traced module, at every binding."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"recset.{short}"]
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(value, f"{short}.{attr}"))
        for modname, module in list(sys.modules.items()):
            if modname != "recset" and not modname.startswith("recset."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, per pass over the job list."""
        st = self.self_time

        def seconds(*names):
            return sum(st[n] for n in names) / passes

        def calls(*names):
            return sum(self.calls[n] for n in names) / passes

        def count(key):
            return self.counts[key] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        profile_calls = self.calls["lengths.length_profile"]
        minimize_calls = self.calls["automata.minimize"]
        codec = ("numeration.encode", "numeration.decode")
        return {
            "lengths.length_profile_s": (seconds("lengths.length_profile"), "s"),
            "lengths.profile_calls": (calls("lengths.length_profile"), "count"),
            "lengths.profile_repeat_ratio": (ratio(profile_calls, len(self._profile_keys)), "ratio"),
            "lengths.subset_steps": (count("lengths.subset_step"), "count"),
            "lengths.max_period": (self.max_period, "count"),
            "automata.minimize_s": (seconds("automata.minimize"), "s"),
            "automata.minimize_calls": (calls("automata.minimize"), "count"),
            "automata.minimize_repeat_ratio": (ratio(minimize_calls, len(self._minimize_keys)), "ratio"),
            "automata.minimize_states_in": (count("minimize_states_in"), "count"),
            "automata.minimize_states_out": (count("minimize_states_out"), "count"),
            "automata.trim_s": (seconds("automata.trim"), "s"),
            "automata.complete_s": (seconds("automata.complete"), "s"),
            "automata.product_s": (seconds("automata.product"), "s"),
            "automata.right_dense_s": (seconds("automata.right_dense"), "s"),
            "automata.has_infinite_language_s": (seconds("automata.has_infinite_language"), "s"),
            "automata.iter_elements_s": (seconds("automata.iter_elements"), "s"),
            "automata.elements_yielded": (count("elements_yielded"), "count"),
            "automata.member_s": (seconds("automata.member"), "s"),
            "automata.member_calls": (calls("automata.member"), "count"),
            "numeration.kronecker_s": (seconds("numeration.kronecker_witness"), "s"),
            "numeration.kronecker_ell_tried": (count("kronecker_ell_tried"), "count"),
            "numeration.verify_kronecker_s": (seconds("numeration.verify_kronecker"), "s"),
            "numeration.mult_independent_s": (seconds("numeration.mult_independent"), "s"),
            "numeration.encode_s": (seconds("numeration.encode"), "s"),
            "numeration.decode_s": (seconds("numeration.decode"), "s"),
            "numeration.codec_calls": (calls(*codec), "count"),
            "fileformat.read_s": (seconds("fileformat.read_automaton", "fileformat.loads_automaton",
                                          "fileformat.set_from_document"), "s"),
            "fileformat.write_s": (seconds("fileformat.write_automaton", "fileformat.dumps_automaton",
                                           "fileformat.document_from_set"), "s"),
            "fileformat.bytes_read": (count("bytes_read"), "count"),
            "fileformat.states_declared": (count("states_declared"), "count"),
            "witnesses.syndetic_decide_s": (seconds("witnesses.syndetic_decide"), "s"),
            "witnesses.witness_search_s": (seconds("witnesses.nonempty_interval_witness",
                                                   "witnesses.empty_interval_witness"), "s"),
            "witnesses.cross_base_refute_s": (seconds("witnesses.cross_base_refute"), "s"),
            "witnesses.gap_scan_s": (seconds("witnesses.gap_scan"), "s"),
            "witnesses.verify_interval_witness_s": (seconds("witnesses.verify_interval_witness"), "s"),
            "witnesses.verify_calls": (calls("witnesses.verify_interval_witness"), "count"),
            "witnesses.verify_contradiction_s": (seconds("witnesses.verify_contradiction"), "s"),
            "cli.self_s": (seconds("cli.main", "cli.build_parser"), "s"),
            "cli.jobs": (calls("cli.main"), "count"),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for job, span, parent, name, start, duration, own in self.spans:
                out.write(json.dumps({"job": job, "span": span, "parent": parent, "name": name,
                                      "start": start, "dur": duration, "self": own}) + "\n")
            if self.dropped:
                out.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
