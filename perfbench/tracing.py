"""Spans around the calls into each layer, installed from outside the program.

`Tracer.install()` replaces the module attributes that the `cli.main` path
looks up at call time with timing wrappers; `uninstall()` puts the originals
back. Each wrapped call records a span: name, start, end, parent span and
the image being refined. Two functions are called far too often to keep a
span per call, `Relatedness.srel` (hundreds of thousands per pass) and
`ilp.objective_value` (one per search leaf). Their calls are folded into
running counts and times instead, and every span keeps the part of those
totals that accrued while it was open, so self times still subtract them.
"""

from __future__ import annotations

import functools
import json
from statistics import median
from time import perf_counter

from tagrefine import cli, ilp, pipeline

LOADERS = ("load_embeddings", "load_hypernyms", "load_assertions", "load_coloc",
           "load_allowlist")


class Span:
    __slots__ = ("name", "start", "end", "parent", "image", "folded", "note")

    def __init__(self, name, parent, image, folded):
        self.name = name
        self.parent = parent
        self.image = image
        self.folded = folded  # folded totals when the span opened, inclusive once closed
        self.start = self.end = 0.0
        self.note = None

    def to_json(self, sid: int, pass_no: int) -> str:
        return json.dumps({"id": sid, "pass": pass_no, "name": self.name,
                           "start": self.start, "end": self.end, "parent": self.parent,
                           "image": self.image, "folded": self.folded, "note": self.note})


def _candidate_counts(cands) -> dict:
    origins = [c.origin.value for box in cands.box_ids for c in cands.per_box[box]]
    return {"boxes": len(cands.box_ids), "visual": len(origins),
            "similar": origins.count("SIMILAR"), "hypernym": origins.count("HYPERNYM"),
            "abstract": len(cands.abstract)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.image = None
        # folded totals: srel calls, srel seconds, objective_value calls, seconds
        self.totals = [0, 0.0, 0, 0.0]
        self.pairs: set[tuple[str, str]] = set()
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, image_of=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            image = image_of(args) if image_of else tracer.image
            span = Span(name, tracer.stack[-1] if tracer.stack else None, image,
                        list(tracer.totals))
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            outer_image, tracer.image = tracer.image, image
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                tracer.image = outer_image
                span.folded = [now - then for now, then in zip(tracer.totals, span.folded)]
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def _srel(self, fn):
        totals, pairs = self.totals, self.pairs

        def srel(a, b):
            t0 = perf_counter()
            value = fn(a, b)
            totals[1] += perf_counter() - t0
            totals[0] += 1
            pairs.add((a, b) if a <= b else (b, a))
            return value

        return srel

    def _objective(self, fn):
        totals = self.totals

        @functools.wraps(fn)
        def objective_value(*args):
            t0 = perf_counter()
            value = fn(*args)
            totals[3] += perf_counter() - t0
            totals[2] += 1
            return value

        return objective_value

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        span = self._span
        self._patch(cli, "main", span("cli.main", cli.main))
        self._patch(cli, "load_store", span("cli.load_store", cli.load_store))
        for name in LOADERS:
            self._patch(cli, name, span(f"knowledge.{name}", getattr(cli, name)))
        assemble = cli.KnowledgeStore.__dict__["assemble"].__func__
        self._patch(cli.KnowledgeStore, "assemble",
                    classmethod(span("knowledge.assemble", assemble)))
        self._patch(cli, "read_vsim_tsv", span("vsim.read_vsim_tsv", cli.read_vsim_tsv))
        self._patch(cli, "read_detections_jsonl",
                    span("vsim.read_detections_jsonl", cli.read_detections_jsonl))
        self._patch(cli, "accumulate", span("vsim.accumulate", cli.accumulate))
        self._patch(cli, "finalize", span("vsim.finalize", cli.finalize, note=len))
        self._patch(cli, "write_vsim_tsv", span("vsim.write_vsim_tsv", cli.write_vsim_tsv))
        self._patch(cli.evaluation, "tune",
                    span("evaluation.tune", cli.evaluation.tune, note=lambda r: len(r[1])))
        self._patch(pipeline, "refine_records",
                    span("pipeline.refine_records", pipeline.refine_records))
        self._patch(pipeline, "refine_record",
                    span("pipeline.refine_record", pipeline.refine_record,
                         image_of=lambda args: args[0].image_id))
        self._patch(pipeline, "generate",
                    span("candidates.generate", pipeline.generate, note=_candidate_counts))
        self._patch(pipeline, "build_instance",
                    span("ilp.build_instance", pipeline.build_instance,
                         note=lambda inst: {"z": len(inst.z), "w": len(inst.w)}))
        self._patch(pipeline, "solve_exact", span("ilp.solve_exact", pipeline.solve_exact))
        self._patch(pipeline, "extract_labels",
                    span("ilp.extract_labels", pipeline.extract_labels))
        self._patch(ilp, "objective_value", self._objective(ilp.objective_value))
        make = pipeline.make_relatedness

        @functools.wraps(make)
        def make_relatedness(*args, **kwargs):
            rel = make(*args, **kwargs)
            rel.srel = self._srel(rel.srel)
            return rel

        self._patch(pipeline, "make_relatedness", make_relatedness)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- per-pass summary -------------------------------------------------------

    def take(self) -> tuple[list[Span], dict]:
        """Hand over this pass's spans and layer figures, and reset."""
        spans, summary = self.spans, summarize(self.spans, len(self.pairs))
        self.spans, self.pairs, self.stack = [], set(), []
        self.totals[:] = [0, 0.0, 0, 0.0]
        return spans, summary


def summarize(spans: list[Span], srel_pairs: int) -> dict:
    """Per-layer figures of one traced pass, derived from its spans."""
    child_time = [0.0] * len(spans)
    child_srel = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
            child_srel[span.parent] += span.folded[1]

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_less_srel(name):
        # the span's own time, less its child spans and the srel calls made
        # directly inside it
        return sum(s.end - s.start - child_time[i] - (s.folded[1] - child_srel[i])
                   for i, s in enumerate(spans) if s.name == name)

    def notes(name):
        return [s.note for s in spans if s.name == name]

    gens = notes("candidates.generate")
    boxes = sum(n["boxes"] for n in gens)
    insts = notes("ilp.build_instance")
    images = [(s.end - s.start) * 1e3 for s in spans if s.name == "pipeline.refine_record"]
    images.sort()
    mains = [s for s in spans if s.name == "cli.main"]
    outer = [s for s in spans if s.name in ("pipeline.refine_records", "evaluation.tune")]
    root = [s for s in spans if s.parent is None]
    srel_calls = sum(s.folded[0] for s in root)
    tune_time = total("evaluation.tune")
    refine_in_tune = sum(s.end - s.start for s in spans if s.name == "pipeline.refine_record"
                         and s.parent is not None
                         and spans[s.parent].name == "evaluation.tune")

    def pct(q):
        if not images:
            return 0.0
        return images[min(len(images) - 1, int(q * len(images)))]

    return {
        "knowledge.load_s": sum(total(f"knowledge.{n}") for n in LOADERS),
        "knowledge.assemble_s": total("knowledge.assemble"),
        "vsim.read_table_s": total("vsim.read_vsim_tsv"),
        "vsim.read_detections_s": total("vsim.read_detections_jsonl"),
        "candidates.generate_s": self_less_srel("candidates.generate"),
        "candidates.visual_per_box": sum(n["visual"] for n in gens) / boxes if boxes else 0.0,
        "candidates.similar": sum(n["similar"] for n in gens) / boxes if boxes else 0.0,
        "candidates.hypernym": sum(n["hypernym"] for n in gens) / boxes if boxes else 0.0,
        "candidates.abstract": sum(n["abstract"] for n in gens) / len(gens) if gens else 0.0,
        "relatedness.srel_calls": srel_calls,
        "relatedness.srel_pairs": srel_pairs,
        "relatedness.srel_s": sum(s.folded[1] for s in root),
        "ilp.build_s": self_less_srel("ilp.build_instance"),
        "ilp.z_terms": sum(n["z"] for n in insts),
        "ilp.w_terms": sum(n["w"] for n in insts),
        "ilp.solve_s": total("ilp.solve_exact"),
        "ilp.leaves": sum(s.folded[2] for s in spans if s.name == "ilp.solve_exact"),
        "ilp.extract_s": total("ilp.extract_labels"),
        "pipeline.image_ms_p50": median(images) if images else 0.0,
        "pipeline.image_ms_p95": pct(0.95),
        "pipeline.image_ms_max": images[-1] if images else 0.0,
        "pipeline.write_s": sum(m.end for m in mains) - sum(o.end for o in outer)
        if outer else 0.0,
        "vsim.accumulate_s": total("vsim.accumulate"),
        "vsim.finalize_s": total("vsim.finalize"),
        "vsim.write_s": total("vsim.write_vsim_tsv"),
        "vsim.pairs": sum(notes("vsim.finalize")),
        "evaluation.trials": sum(notes("evaluation.tune")),
        "evaluation.score_s": tune_time - refine_in_tune,
    }
