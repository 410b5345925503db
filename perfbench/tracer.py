"""Outside-in tracing of one interpsets CLI call.

Run as a child process in place of ``python -m interpsets.cli``:

    python perfbench/tracer.py SPANS_JSON JOB_ID CLI_ARG...

It imports ``interpsets.cli``, wraps every public function of every
``interpsets`` module (plus ``IntegerSetModel.elements`` and
``SymbolWord`` construction) in every namespace that binds it, including
``from ... import`` aliases such as ``cli._atomic_write``, runs
``cli.main`` and exits with its code.  Spans stay in memory and are
written to SPANS_JSON once ``main`` returns, together with the time the
write began, so that the harness can time interpreter start and exit.
Nothing under ``src/`` is edited; the harness in ``run.py`` groups the
spans into layers with ``LAYERS`` below.
"""

from __future__ import annotations

import time


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so the harness can set a child's
    timestamps against its own spawn and exit times."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_STARTED = now()  # before any import the tracer pays for

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import sys  # noqa: E402

# Layer -> span names.  A span is named <module>.<function>; a public
# function missing here falls into "<module>.other", and any cli function
# into "cli", so a function added later is still timed.
LAYERS = {
    "intsets.banach": ["intsets.banach_density_profile",
                       "intsets.max_window_count"],
    "intsets.elements": ["intsets.IntegerSetModel.elements"],
    "intsets.certify": ["intsets.syndetic_certificate",
                        "intsets.thick_certificate",
                        "intsets.piecewise_syndetic_certificate",
                        "intsets.gap_syndeticity_table",
                        "intsets.free_runs", "intsets.gap_sequence",
                        "intsets.replay_certificate"],
    "intsets.io": ["intsets.atomic_write_text", "intsets.write_set_file",
                   "intsets.read_set_file"],
    "words.profile": ["words.complexity_profile", "words.entropy_estimate"],
    "words.factor_count": ["words.factor_count", "words.factors"],
    "words.io": ["words.read_word_file", "words.write_word_file"],
    "words.new": ["words.SymbolWord", "words.word"],
    "construct.member": ["construct.is_member_level",
                         "construct.is_ergodic_member"],
    "construct.build": ["construct.totally_minimal_construct",
                        "construct.strictly_ergodic_construct",
                        "construct.extend_zero",
                        "construct.sturmian_interpolate",
                        "construct.mixing_extend", "construct.random_problem",
                        "construct.constant_problem",
                        "construct.syndetic_partition_witness",
                        "construct.density_coloring_witness"],
    "construct.verify": ["construct.verify_trace",
                         "construct.ergodic_block_report"],
    "counting.oracle": ["counting.brute_force_count"],
    "counting.closed_form": ["counting.count_low_weight",
                             "counting.growth_rate_profile",
                             "counting.sandwich_bounds", "counting.entropy_H",
                             "counting.analytic_limit"],
    "recurrence.digit_oracle": ["recurrence.digit_enumerate",
                                "recurrence.digit_membership"],
    "recurrence.build": ["recurrence.build_F", "recurrence.ip_closure",
                         "recurrence.index_set", "recurrence.canonical_index",
                         "recurrence.in_index_set"],
    "recurrence.sum_free": ["recurrence.verify_sum_free"],
    "recurrence.shift_ip": ["recurrence.verify_shift_ip"],
}
IMPORT_SPAN = "import"


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    if span_name == IMPORT_SPAN:
        return IMPORT_SPAN
    for layer, names in LAYERS.items():
        if span_name in names:
            return layer
    module = span_name.split(".", 1)[0]
    return "cli" if module == "cli" else f"{module}.other"


def _profile_positions(args, kwargs, profile):
    return sum(profile.word_length - n + 1 for n in profile.p)


def _member_memo(args, kwargs, result):
    trace = args[2] if len(args) > 2 else kwargs["trace"]
    return len(getattr(trace, "_member_memo", ()))


def _symbols(args, kwargs, result):
    # SymbolWord.__init__(self, alphabet_size, symbols) and word(k, symbols)
    symbols = kwargs["symbols"] if "symbols" in kwargs else args[-1]
    return len(symbols)


# Work counts read off a call's arguments or result, per span name.
COUNTS = {
    "intsets.max_window_count": lambda a, k, r: 1,      # one window length
    "intsets.IntegerSetModel.elements": lambda a, k, r: len(r),
    "words.complexity_profile": _profile_positions,
    "words.factor_count": lambda a, k, r: len(a[0]) - a[1] + 1,
    "words.factors": lambda a, k, r: len(a[0]) - a[1] + 1,
    "words.read_word_file": lambda a, k, r: len(r),
    "words.write_word_file": lambda a, k, r: len(a[1]),
    "words.SymbolWord": _symbols,
    "words.word": _symbols,
    "construct.is_member_level": _member_memo,
    "construct.is_ergodic_member": _member_memo,
    "recurrence.build_F": lambda a, k, r: len(r.elements),
    "recurrence.verify_sum_free": lambda a, k, r: r.pairs_checked,
}


class Tracer:
    """Spans of one job: [name, start, end, parent index, count]."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []
        self._stack = []

    def open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, None, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of every module of `package` and
        rebind each name, in every module, that refers to one of them."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        intsets, words = package.intsets, package.words
        intsets.IntegerSetModel.elements = self.wrap(
            "intsets.IntegerSetModel.elements",
            intsets.IntegerSetModel.elements)
        words.SymbolWord.__init__ = self.wrap(
            "words.SymbolWord", words.SymbolWord.__init__)

    def dump(self, path: str) -> None:
        doc = {"job": self.job_id, "end": now(), "spans": [
            {"job": self.job_id, "name": n, "start": s, "end": e,
             "parent": p, "count": c}
            for n, s, e, p, c in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv) -> int:
    spans_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(job_id)
    idx = tracer.open(IMPORT_SPAN, _STARTED)
    import interpsets
    import interpsets.cli
    tracer.install(interpsets)
    tracer.close(idx)
    try:
        code = interpsets.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
