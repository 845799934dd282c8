"""Experiment orchestration: train, synthesize, decode and score end to end.

An experiment runs the mode matrix over one language direction:

  B0    baseline training data only
  +Syn  synthetic bitext concatenated at the data level
  +PT   synthetic data as a separate feature-block phrase table
  +Dict dictionary entries concatenated as sentence pairs

and writes a deterministic manifest (config hash, artifact hashes, scores)
so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
from dataclasses import dataclass, fields
from typing import Sequence

from . import align, decoder, evalkit, ngramlm, phrasetab, translit
from .corpus import Bitext, concat_bitexts, count_oov, dict_to_bitext, \
    ingest_bitext, make_sentence, read_dictionary_tsv, read_lines, write_lines
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    """Line-based `key = value` experiment description."""

    work_dir: str = "run"
    train_src: str = ""
    train_tgt: str = ""
    test_src: str = ""
    test_tgt: str = ""
    dev_src: str = ""
    dev_tgt: str = ""
    synth_src: str = ""
    synth_tgt: str = ""
    dict_tsv: str = ""
    lm_corpus: str = ""
    translit_model: str = ""
    label: str = "src-tgt"
    use_synth: str = "off"      # off | concat | separate
    use_dict: str = "off"       # off | on
    max_sent_len: int = 80
    lm_order: int = 3
    em_iterations: int = 5
    max_phrase_len: int = 5
    prune_top_k: int = 0        # 0 disables pruning
    option_limit: int = decoder.DecoderSystem.option_limit
    translit_k: int = decoder.DecoderSystem.translit_k
    distortion_limit: int = decoder.DecoderSystem.distortion_limit
    stack_size: int = decoder.DecoderSystem.stack_size
    tune_rounds: int = 0        # 0 freezes the default weights
    nbest_size: int = 50
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.use_synth not in ("off", "concat", "separate"):
            raise DataError(f"use_synth must be off|concat|separate, got {self.use_synth!r}")
        if self.use_dict not in ("off", "on"):
            raise DataError(f"use_dict must be off|on, got {self.use_dict!r}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        values: dict[str, object] = {}
        types = {f.name: type(f.default) for f in fields(cls)}
        for lineno, line in enumerate(read_lines(path), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = types[key](value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        return cls(**values)  # type: ignore[arg-type]

    def canonical(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config.canonical().encode("utf-8")).hexdigest()


def file_hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --- Training building blocks -------------------------------------------------

def align_bitext(bitext: Bitext, iterations: int, use_null: bool = True):
    """Train both directional models and GDFA-symmetrize every pair.

    Returns (alignments, w(tgt|src) table, w(src|tgt) table).
    """
    pairs = bitext.token_pairs()
    cond_tgt = align.train_model1(pairs, iterations, use_null=use_null)
    swapped = [(t, s) for s, t in pairs]
    cond_src = align.train_model1(swapped, iterations, use_null=use_null)
    matrices = []
    for pair in pairs:
        fwd = align.viterbi_align(cond_tgt, pair, direction="forward")
        bwd = align.viterbi_align(cond_src, pair, direction="backward")
        matrices.append(align.symmetrize_gdfa(fwd, bwd))
    return matrices, cond_src, cond_tgt


def build_phrase_table(bitext: Bitext, em_iterations: int, max_phrase_len: int,
                       prune_top_k: int = 0, role: str = "baseline") -> phrasetab.PhraseTable:
    alignments, w_tgt_given_src, w_src_given_tgt = align_bitext(bitext, em_iterations)
    table = phrasetab.score_phrase_table(
        bitext, alignments, w_tgt_given_src, w_src_given_tgt,
        max_len=max_phrase_len, role=role,
    )
    if prune_top_k > 0:
        table = phrasetab.prune_table(table, prune_top_k)
    return table


_WORKER: dict[str, object] = {}


def _init_worker(system: decoder.DecoderSystem, model: decoder.LogLinearModel) -> None:
    _WORKER["system"] = system
    _WORKER["model"] = model


def _decode_one(tokens: tuple[str, ...]) -> tuple[str, ...]:
    if not tokens:
        return ()
    system: decoder.DecoderSystem = _WORKER["system"]  # type: ignore[assignment]
    model: decoder.LogLinearModel = _WORKER["model"]  # type: ignore[assignment]
    return system.translate(tokens, model)


def decode_corpus(
    system: decoder.DecoderSystem,
    model: decoder.LogLinearModel,
    sentences: Sequence[Sequence[str]],
    threads: int = 1,
) -> list[tuple[str, ...]]:
    """Decode sentences in order; distinct sentences may run in parallel."""
    inputs = [tuple(s) for s in sentences]
    if threads <= 1 or len(inputs) < 4:
        _init_worker(system, model)
        return [_decode_one(tokens) for tokens in inputs]
    with multiprocessing.Pool(threads, initializer=_init_worker,
                              initargs=(system, model)) as pool:
        return pool.map(_decode_one, inputs)


def synthesize_bitext(
    bitext: Bitext,
    system: decoder.DecoderSystem,
    model: decoder.LogLinearModel | None = None,
) -> Bitext:
    """Replace the source side of every pair with its decoder output.

    Pair count is preserved unless a pair fails to decode, in which case it
    is dropped with a warning. Output provenance is "synthetic".
    """
    model = model or system.default_model()
    out = Bitext()
    dropped = 0
    for src, tgt in bitext.token_pairs():
        try:
            hyp = system.translate(src, model) if src else ()
        except DataError as exc:
            dropped += 1
            logger.warning("synthesize: dropping undecodable pair %r (%s)",
                           " ".join(src), exc)
            continue
        out.add_pair(
            make_sentence(hyp, out.src_vocab),
            make_sentence(tgt, out.tgt_vocab),
            "synthetic",
        )
    out.dropped_pairs = dropped
    return out


# --- The experiment matrix ----------------------------------------------------

@dataclass
class SystemRun:
    mode: str
    bleu: float
    oov: int
    hyp_path: str
    table_paths: list[str]
    weights_path: str


@dataclass
class ExperimentResult:
    scores: dict[str, float]
    report_text: str
    report_path: str
    manifest_path: str


def _oov_count(sentences: Sequence[Sequence[str]], tables: phrasetab.TableSet) -> int:
    known: set[str] = set()
    for table in tables.tables:
        for source in table.sources():
            if len(source) == 1:
                known.add(source[0])
    return count_oov(sentences, known)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured mode matrix and write a run manifest."""
    required = {
        "train_src": config.train_src, "train_tgt": config.train_tgt,
        "test_src": config.test_src, "test_tgt": config.test_tgt,
    }
    if config.use_synth != "off":
        required.update(synth_src=config.synth_src, synth_tgt=config.synth_tgt)
    if config.use_dict == "on":
        required.update(dict_tsv=config.dict_tsv)
    if config.tune_rounds > 0:
        required.update(dev_src=config.dev_src, dev_tgt=config.dev_tgt)
    missing = [name for name, path in required.items()
               if not path or not os.path.isfile(path)]
    if missing:
        raise DataError(f"missing experiment inputs: {', '.join(sorted(missing))}")

    os.makedirs(config.work_dir, exist_ok=True)
    inputs = {name: path for name, path in required.items()}
    for optional in ("lm_corpus", "translit_model"):
        path = getattr(config, optional)
        if path:
            if not os.path.isfile(path):
                raise DataError(f"missing experiment inputs: {optional}")
            inputs[optional] = path

    baseline = ingest_bitext(read_lines(config.train_src), read_lines(config.train_tgt),
                             max_len=config.max_sent_len)
    test_src = [tuple(line.split()) for line in read_lines(config.test_src)]
    test_ref = [tuple(line.split()) for line in read_lines(config.test_tgt)]
    if len(test_src) != len(test_ref):
        raise DataError(
            f"test line count mismatch: {len(test_src)} vs {len(test_ref)}"
        )

    if config.lm_corpus:
        lm_sentences = [tuple(line.split()) for line in read_lines(config.lm_corpus)]
    else:
        lm_sentences = baseline.target_tokens()
    lm = ngramlm.train_kn(lm_sentences, config.lm_order)

    translit_model = None
    if config.translit_model:
        translit_model = translit.read_char_model(config.translit_model)

    synth = None
    if config.use_synth != "off":
        synth = ingest_bitext(read_lines(config.synth_src), read_lines(config.synth_tgt),
                              max_len=config.max_sent_len, provenance="synthetic")
    dict_entries = None
    if config.use_dict == "on":
        dict_entries = read_dictionary_tsv(read_lines(config.dict_tsv), config.dict_tsv)

    dev_pairs = None
    if config.tune_rounds > 0:
        dev_src = [tuple(line.split()) for line in read_lines(config.dev_src)]
        dev_tgt = [tuple(line.split()) for line in read_lines(config.dev_tgt)]
        if len(dev_src) != len(dev_tgt):
            raise DataError(f"dev line count mismatch: {len(dev_src)} vs {len(dev_tgt)}")
        dev_pairs = list(zip(dev_src, dev_tgt))

    def make_table(bitext: Bitext, role: str) -> phrasetab.PhraseTable:
        return build_phrase_table(bitext, config.em_iterations,
                                  config.max_phrase_len, config.prune_top_k, role)

    mode_tables: dict[str, phrasetab.TableSet] = {}
    baseline_table = make_table(baseline, "baseline")
    mode_tables["B0"] = phrasetab.TableSet([baseline_table])
    if synth is not None and config.use_synth == "concat":
        mode_tables["Syn"] = phrasetab.TableSet(
            [make_table(concat_bitexts([baseline, synth]), "baseline")],
            mode="concat-data",
        )
    if synth is not None and config.use_synth == "separate":
        synth_table = make_table(synth, "synthetic")
        mode_tables["PT"] = phrasetab.TableSet([baseline_table, synth_table])
    if dict_entries is not None:
        # dictionaries stack on top of the best previous data configuration
        parts = [baseline]
        if synth is not None and config.use_synth == "concat":
            parts.append(synth)
        parts.append(dict_to_bitext(dict_entries))
        mode_tables["Dict"] = phrasetab.TableSet(
            [make_table(concat_bitexts(parts), "baseline")], mode="concat-data",
        )

    artifacts: dict[str, str] = {}
    lm_path = os.path.join(config.work_dir, "lm.arpa")
    ngramlm.write_arpa(lm, lm_path)
    artifacts["lm"] = "lm.arpa"

    runs: list[SystemRun] = []
    for mode, tables in mode_tables.items():
        system = decoder.DecoderSystem(
            tables=tables, lm=lm, translit_model=translit_model,
            option_limit=config.option_limit, translit_k=config.translit_k,
            distortion_limit=config.distortion_limit, stack_size=config.stack_size,
        )
        model = system.default_model()
        if config.tune_rounds > 0 and dev_pairs:
            model = decoder.tune_weights(dev_pairs, system, model,
                                         rounds=config.tune_rounds,
                                         nbest_size=config.nbest_size,
                                         seed=config.seed)
        hyps = decode_corpus(system, model, test_src, threads=config.threads)
        bleu, _ = evalkit.corpus_bleu(hyps, test_ref)
        oov = _oov_count(test_src, tables)

        table_paths = []
        for idx, table in enumerate(tables.tables):
            rel = f"table.{mode}.{idx}.moses"
            phrasetab.write_moses(table, os.path.join(config.work_dir, rel))
            table_paths.append(rel)
            artifacts[f"table.{mode}.{idx}"] = rel
        weights_rel = f"weights.{mode}.tsv"
        decoder.write_weights(model, os.path.join(config.work_dir, weights_rel))
        artifacts[f"weights.{mode}"] = weights_rel
        hyp_rel = f"output.{mode}.txt"
        write_lines(os.path.join(config.work_dir, hyp_rel),
                    (" ".join(h) for h in hyps))
        artifacts[f"output.{mode}"] = hyp_rel
        runs.append(SystemRun(mode, bleu, oov, hyp_rel, table_paths, weights_rel))

    by_mode = {run.mode: run for run in runs}
    base_run = by_mode["B0"]
    table_rows = [[config.label, "B_0", "system", "delta"]]
    scores: dict[str, float] = {"bleu.B0": base_run.bleu, "oov.B0": float(base_run.oov)}
    for mode in ("Syn", "PT", "Dict"):
        run = by_mode.get(mode)
        if run is None:
            continue
        if mode == "Dict" and "Syn" in by_mode:
            base = by_mode["Syn"]
        else:
            base = base_run
        row = evalkit.delta_report(base.bleu, run.bleu, f"{config.label} +{mode}")
        table_rows.append([cell.strip() for cell in row.split("|")])
        scores[f"bleu.{mode}"] = run.bleu
        scores[f"oov.{mode}"] = float(run.oov)
        scores[f"delta.{mode}"] = run.bleu - base.bleu
    table_rows.append(["oov"] + [f"{run.mode}={run.oov}" for run in runs])
    report_text = "\n".join(
        " | ".join(row) for row in table_rows) + "\n"
    report_path = os.path.join(config.work_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(evalkit.render_columns(table_rows) + "\n")
    artifacts["report"] = "report.txt"
    with open(os.path.join(config.work_dir, "report.tsv"), "w",
              encoding="utf-8") as handle:
        handle.write(evalkit.render_tsv(table_rows) + "\n")
    artifacts["report_tsv"] = "report.tsv"

    manifest_lines = [f"config_hash = {config_hash(config)}"]
    for name in sorted(inputs):
        manifest_lines.append(f"input.{name}.sha256 = {file_hash(inputs[name])}")
    for name in sorted(artifacts):
        rel = artifacts[name]
        digest = file_hash(os.path.join(config.work_dir, rel))
        manifest_lines.append(f"artifact.{name} = {rel}")
        manifest_lines.append(f"artifact.{name}.sha256 = {digest}")
    for key in sorted(scores):
        manifest_lines.append(f"score.{key} = {scores[key]:.6f}")
    manifest_path = os.path.join(config.work_dir, "run.manifest")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(manifest_lines) + "\n")

    return ExperimentResult(scores=scores, report_text=report_text,
                            report_path=report_path, manifest_path=manifest_path)
