"""Experiment orchestration: train, synthesize, decode and score end to end.

An experiment runs the mode matrix over one language direction:

  B0    baseline training data only
  +Syn  synthetic bitext concatenated at the data level
  +PT   synthetic data as a separate feature-block phrase table
  +Dict dictionary entries concatenated as sentence pairs

and writes a deterministic manifest (config hash, artifact hashes, scores)
so reruns with the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from typing import Sequence

from . import align, decoder, evalkit, ngramlm, phrasetab, translit
from .corpus import DEFAULT_MAX_SENT_LEN, LM_RESERVED, TokenPair, count_oov, ingest_bitext, \
    read_dictionary_tsv, read_lines, read_parallel, read_sentences, write_lines
from .errors import DataError


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
    max_sent_len: int = DEFAULT_MAX_SENT_LEN
    lm_order: int = ngramlm.DEFAULT_ORDER
    em_iterations: int = align.DEFAULT_EM_ITERATIONS
    max_phrase_len: int = phrasetab.DEFAULT_MAX_PHRASE_LEN
    prune_top_k: int = 0        # 0 disables pruning
    option_limit: int = decoder.DecoderSystem.option_limit
    distortion_limit: int = decoder.DecoderSystem.distortion_limit
    stack_size: int = decoder.DecoderSystem.stack_size
    tune_rounds: int = 0        # 0 freezes the default weights
    nbest_size: int = decoder.DEFAULT_NBEST_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.work_dir:
            raise ValueError("work_dir must be non-empty")
        if self.use_synth not in ("off", "concat", "separate"):
            raise DataError(f"use_synth must be off|concat|separate, got {self.use_synth!r}")
        if self.use_dict not in ("off", "on"):
            raise DataError(f"use_dict must be off|on, got {self.use_dict!r}")
        # checked here so that a bad value fails before any training
        decoder.check_at_least(self, {"prune_top_k": 0, "tune_rounds": 0,  # 0 turns it off
                                      "max_sent_len": 1, "em_iterations": 1,
                                      "max_phrase_len": 1, "nbest_size": 1,
                                      **decoder.SEARCH_LOWS})
        if not 1 <= self.lm_order <= ngramlm.MAX_ORDER:
            raise ValueError(f"lm_order must be in 1..{ngramlm.MAX_ORDER}, got {self.lm_order}")

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
            if key in values:
                raise DataError(f"{path}:{lineno}: config key {key!r} given twice")
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

def align_bitext(pairs: Sequence[TokenPair], iterations: int, use_null: bool = True):
    """Train both directional models and GDFA-symmetrize every pair.

    Each direction's share of align.train_both_directions brings its own
    Viterbi links; the backward ones, a source index per target word, are
    transposed. Returns (alignments, t(tgt|src), t(src|tgt)).
    """
    (src_given_tgt, forward), (tgt_given_src, backward) = align.train_both_directions(
        pairs, iterations, use_null)
    matrices = []
    for (src, tgt), src_links, tgt_links in zip(pairs, forward, backward):
        matrices.append(align.symmetrize_gdfa(
            align.AlignmentMatrix(len(src), len(tgt), frozenset(
                (i, j) for i, j in enumerate(src_links) if j >= 0)),
            align.AlignmentMatrix(len(src), len(tgt), frozenset(
                (i, j) for j, i in enumerate(tgt_links) if i >= 0))))
    return matrices, tgt_given_src, src_given_tgt


def build_phrase_table(pairs: Sequence[TokenPair], em_iterations: int, max_phrase_len: int,
                       prune_top_k: int = 0, role: str = "baseline") -> phrasetab.PhraseTable:
    """Align, score and optionally prune a phrase table.

    The two Model 1 tables are dropped once the link averages are read from
    them, so that they are not alive while the phrase pairs are counted.
    """
    alignments, *tables = align_bitext(pairs, em_iterations)
    averages = phrasetab.link_averages(pairs, alignments, *tables)
    del tables
    table = phrasetab.score_phrase_table(pairs, alignments, averages,
                                         max_len=max_phrase_len, role=role)
    if prune_top_k > 0:
        table = phrasetab.prune_table(table, prune_top_k)
    return table


def synthesize_bitext(pairs: Sequence[TokenPair], system: decoder.DecoderSystem,
                      model: decoder.LogLinearModel | None = None) -> list[TokenPair]:
    """Replace the source side of every pair with its decoder output.

    A pair whose non-empty source gets no hypothesis (its search dead-ended)
    is dropped; every other pair is kept, in order.
    """
    model = model or system.default_model()
    decoded = decoder.decode_corpus(system, model, [src for src, _ in pairs])
    return [(hyp, tgt) for (src, tgt), (hyp, _) in zip(pairs, decoded) if hyp or not src]


# --- The experiment matrix ----------------------------------------------------

@dataclass
class ExperimentResult:
    scores: dict[str, float]
    report_text: str
    manifest_path: str


def _oov_count(sentences: Sequence[Sequence[str]], tables: phrasetab.TableSet) -> int:
    known: set[str] = set()
    for table in tables.tables:
        for source in table.sources():
            if len(source) == 1:
                known.add(source[0])
    return count_oov(sentences, known)


def _inputs(config: ExperimentConfig) -> dict[str, str]:
    """Every file the config's modes read, by config key.

    Any that is unset or missing is named in one DataError.
    """
    keys = ["train_src", "train_tgt", "test_src", "test_tgt"]
    if config.use_synth != "off":
        keys += ["synth_src", "synth_tgt"]
    if config.use_dict == "on":
        keys.append("dict_tsv")
    if config.tune_rounds > 0:
        keys += ["dev_src", "dev_tgt"]
    keys += [key for key in ("lm_corpus", "translit_model") if getattr(config, key)]
    inputs = {key: getattr(config, key) for key in keys}
    missing = [key for key, path in inputs.items() if not path or not os.path.isfile(path)]
    if missing:
        raise DataError(f"missing experiment inputs: {', '.join(sorted(missing))}")
    return inputs


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured mode matrix and write a run manifest.

    Every input is checked and read before work_dir is created or anything
    is trained.
    """
    inputs = _inputs(config)
    baseline = ingest_bitext(config.train_src, config.train_tgt, max_len=config.max_sent_len)
    test = read_parallel(config.test_src, config.test_tgt)
    test_src = [src for src, _ in test]
    if "lm_corpus" in inputs:
        lm_sentences = read_sentences(config.lm_corpus, LM_RESERVED)
    else:
        lm_sentences = [tgt for _, tgt in baseline]
    translit_model = None
    if "translit_model" in inputs:
        translit_model = translit.read_char_model(config.translit_model)
    synth = None
    if "synth_src" in inputs:
        synth = ingest_bitext(config.synth_src, config.synth_tgt, max_len=config.max_sent_len)
    dict_pairs = None  # each dictionary entry is one sentence pair
    if "dict_tsv" in inputs:
        dict_pairs = [(entry.source, entry.target)
                      for entry in read_dictionary_tsv(config.dict_tsv)]
    dev_pairs = None
    if "dev_src" in inputs:
        dev_pairs = read_parallel(config.dev_src, config.dev_tgt)
        if not any(src for src, _ in dev_pairs):  # no sentence, or only blank ones
            raise DataError(f"{config.dev_src}: dev_src is empty, but tune_rounds "
                            f"= {config.tune_rounds} needs dev sentences")

    os.makedirs(config.work_dir, exist_ok=True)
    lm = ngramlm.train_kn(lm_sentences, config.lm_order)

    def make_table(pairs: list[TokenPair], role: str = "baseline") -> phrasetab.PhraseTable:
        return build_phrase_table(pairs, config.em_iterations, config.max_phrase_len,
                                  config.prune_top_k, role)

    # each mode's tables; the training data grows as the modes stack
    data = baseline
    baseline_table = make_table(data)
    mode_tables = {"B0": [baseline_table]}
    if config.use_synth == "concat":
        data = baseline + synth
        mode_tables["Syn"] = [make_table(data)]
    elif config.use_synth == "separate":
        mode_tables["PT"] = [baseline_table, make_table(synth, "synthetic")]
    if dict_pairs is not None:
        # dictionaries stack on top of the best previous data configuration
        mode_tables["Dict"] = [make_table(data + dict_pairs)]

    artifacts: dict[str, str] = {}  # manifest name: path under work_dir

    def artifact(name: str, rel: str) -> str:
        artifacts[name] = rel
        return os.path.join(config.work_dir, rel)

    ngramlm.write_arpa(lm, artifact("lm", "lm.arpa"))

    bleu: dict[str, float] = {}
    oov: dict[str, int] = {}
    for mode, table_list in mode_tables.items():
        tables = phrasetab.TableSet(table_list)
        system = decoder.DecoderSystem(
            tables=tables, lm=lm, translit_model=translit_model,
            option_limit=config.option_limit, distortion_limit=config.distortion_limit,
            stack_size=config.stack_size,
        )
        model = system.default_model()
        if dev_pairs is not None:
            model = decoder.tune_weights(dev_pairs, system, model,
                                         rounds=config.tune_rounds,
                                         nbest_size=config.nbest_size)
        hyps = [best for best, _ in decoder.decode_corpus(system, model, test_src)]
        bleu[mode], _ = evalkit.corpus_bleu(hyps, [ref for _, ref in test])
        oov[mode] = _oov_count(test_src, tables)

        for idx, table in enumerate(tables.tables):
            phrasetab.write_moses(table, artifact(f"table.{mode}.{idx}",
                                                  f"table.{mode}.{idx}.moses"))
        decoder.write_weights(model, artifact(f"weights.{mode}", f"weights.{mode}.tsv"))
        write_lines(artifact(f"output.{mode}", f"output.{mode}.txt"),
                    (" ".join(h) for h in hyps))

    table_rows = [[config.label, "B_0", "system", "delta"]]
    scores: dict[str, float] = {}
    for mode in mode_tables:
        scores[f"bleu.{mode}"] = bleu[mode]
        scores[f"oov.{mode}"] = float(oov[mode])
        if mode != "B0":
            base = "Syn" if mode == "Dict" and "Syn" in bleu else "B0"
            table_rows.append(evalkit.delta_report(bleu[base], bleu[mode],
                                                   f"{config.label} +{mode}"))
            scores[f"delta.{mode}"] = bleu[mode] - bleu[base]
    table_rows.append(["oov"] + [f"{mode}={count}" for mode, count in oov.items()])
    report_text = "\n".join(
        " | ".join(row) for row in table_rows) + "\n"
    write_lines(artifact("report", "report.txt"), [evalkit.render_columns(table_rows)])
    write_lines(artifact("report_tsv", "report.tsv"), [evalkit.render_tsv(table_rows)])

    manifest_lines = [f"config_hash = {config_hash(config)}"]
    for name in sorted(inputs):
        manifest_lines.append(f"input.{name}.sha256 = {file_hash(inputs[name])}")
    for name, rel in sorted(artifacts.items()):
        digest = file_hash(os.path.join(config.work_dir, rel))
        manifest_lines.append(f"artifact.{name} = {rel}")
        manifest_lines.append(f"artifact.{name}.sha256 = {digest}")
    for key in sorted(scores):
        manifest_lines.append(f"score.{key} = {scores[key]:.6f}")
    manifest_path = os.path.join(config.work_dir, "run.manifest")
    write_lines(manifest_path, manifest_lines)

    return ExperimentResult(scores=scores, report_text=report_text,
                            manifest_path=manifest_path)
