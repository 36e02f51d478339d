"""Seeded inputs for the three benchmark workloads.

reference    ROADMAP's baseline corpus: litscan.synthetic.generate_corpus at
             seed 20240601, 200 docs of 6,000 words. Its text is fixed; the
             benchmark seed only permutes the manifest order.
noisy-dense  25 papers of 20k words of research prose full of words
             that share pigeonhole pieces with analyzer terms, 8-20 planted
             chunks each, and pdftotext damage (CRLF, hyphenated line breaks,
             typographic apostrophes, ligatures, soft hyphens, en dashes,
             form-feed page headers, 'İ' in front matter). find_supports
             and apply_skips stay under 1% of classify time even here:
             each costs a few string searches per term span found.
many-short   600 small papers over 40 journals x 21 years: 60% under the
             4,000-word gate, 15% secondary studies, the rest just over it.

The noisy-dense and many-short generators read only the raw example and
synonym strings, names, tags and modes of the bundle. They call nothing in
litscan.ingest or litscan.matching, so a change under test cannot alter its
own input, and their truth comes only from what was planted.

Inertness. A text is a sequence of units (sentences, page headers, front
matter and planted chunks) joined by whitespace. Every unit ends in two
characters that no normalized term contains, such as "]." or ").", so a
window spanning two units holds two foreign characters and is more than one
edit from every term. Each unit is therefore checked alone, behind the ". "
that precedes it, under both models of textcheck: filler units must hit no
term, chunks only terms of their own analyzer.
"""

import csv
import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from textcheck import MODELS, TermIndex, normalize_current, word_count

REFERENCE_CORPUS_SEED = 20240601
POOL_SEED = 7
WORKLOADS = ("reference", "noisy-dense", "many-short")

STATUS_ANALYZED = "analyzed"
STATUS_SHORT = "skipped_short"
STATUS_SECONDARY = "excluded_secondary"

SHORT_GATE = 4000  # litscan's default --short-threshold
MIN_CHUNK_GAP = 700  # normalized chars; beyond the 500-char support window
TRAP_CHUNKS = (
    "the unit tests were run on every build",
    "all unit tests passed before each release",
)


@dataclass
class Truth:
    """Expected outcome per paper, from what was planted."""

    status: dict[str, str] = field(default_factory=dict)
    present: dict[str, set[str]] = field(default_factory=dict)
    clean: dict[str, set[str]] = field(default_factory=dict)  # present via an undamaged planting


@dataclass
class Workload:
    manifest: Path
    papers: int
    digest: str
    truth: Truth


def strip_markers(raw_line: str) -> str:
    return raw_line.replace("[[[", "").replace("]]]", "").replace("__", "")


def _primary(raw_line: str) -> str:
    return raw_line[raw_line.index("[[[") + 3:raw_line.index("]]]")]


def _supports(raw_line: str) -> list[str]:
    rest = re.sub(r"\[\[\[.*?\]\]\]", "", raw_line)
    return rest.split("__")[1::2]


class BundleView:
    """What the generators may know about a bundle: raw strings only."""

    def __init__(self, bundle):
        self.tags = {s.name: tuple(s.tags) for s in bundle}
        self.classifiers = [s.name for s in bundle if s.mode == "classify"]
        self.excluders = [s.name for s in bundle if s.mode == "exclude"]
        self.positives = {s.name: [ex.raw_line for ex in s.positives] for s in bundle}
        self.negatives = {s.name: [ex.raw_line for ex in s.negatives] for s in bundle}
        self.term_owner: list[dict[str, set[str]]] = []
        self.indexes: list[TermIndex] = []
        self.blockers: list[set[str]] = []
        for model in MODELS:
            owner: dict[str, set[str]] = {}
            for s in bundle:
                phrases = [_primary(ex.raw_line) for ex in s.positives + s.negatives]
                for phrase in phrases + list(s.synonyms):
                    owner.setdefault(model(phrase), set()).add(s.name)
            self.term_owner.append(owner)
            self.indexes.append(TermIndex(owner))
            # a negative example confirms only with all its supports; keeping
            # its longest support out of filler keeps filler from confirming it
            self.blockers.append({
                max((model(p) for p in _supports(ex.raw_line)), key=len)
                for s in bundle for ex in s.negatives if _supports(ex.raw_line)
            })
        for index in self.indexes:
            if index.alphabet & set(".])0123456789"):
                raise ValueError("unit barriers need terms without '.', ']', ')' or digits")
        self.fuzzy_primary = {
            name: [ln for ln in lines if len(normalize_current(_primary(ln))) >= 8]
            for name, lines in self.positives.items()
        }
        trap_hits = self.analyzers_hit(TRAP_CHUNKS[0] + " [1].")
        if len(trap_hits) != 1:
            raise ValueError(f"trap chunks should hit exactly one analyzer, hit {sorted(trap_hits)}")
        self.trap_owner = trap_hits.pop()

    def analyzers_hit(self, unit: str) -> set[str]:
        hit: set[str] = set()
        for model, index, owner in zip(MODELS, self.indexes, self.term_owner):
            for term in index.hits(model(". " + unit)):
                hit |= owner[term]
        return hit

    def has_barrier(self, unit: str) -> bool:
        for model, index in zip(MODELS, self.indexes):
            norm = model(unit)
            if len(norm) < 2 or set(norm[-2:]) & index.alphabet:
                return False
        return True

    def inert_filler(self, unit: str) -> bool:
        if not self.has_barrier(unit):
            return False
        for model, blockers in zip(MODELS, self.blockers):
            text = model(unit)
            if any(b in text for b in blockers):
                return False
        return not self.analyzers_hit(unit)

    def chunk_ok(self, unit: str, analyzer: str) -> bool:
        return self.has_barrier(unit) and self.analyzers_hit(unit) <= {analyzer}


# ---------------------------------------------------------------- prose

_PLAIN_NOUNS = (
    "project release module component developer team metric defect build commit "
    "review issue repository dataset sample benchmark tool framework practice "
    "guideline process change feature version task workflow pipeline library "
    "service interface file profile configuration field finding effort difference "
    "traffic staff architecture requirement deployment maintainer contributor "
    "survey interview questionnaire codebase"
).split()
# share pigeonhole pieces with analyzer terms without being within one edit
_NEAR_NOUNS = (
    "regression", "regression analysis", "correlation", "correlation analysis",
    "data analysis", "sensitivity analysis", "cost analysis", "power", "variance",
    "statistic", "summary statistic", "interval", "time interval", "assumption",
    "inference", "factor", "appendix", "correction", "direction", "distribution",
    "effect", "rank", "ranking", "significance", "normality", "confidence",
    "rank order", "literature", "mapping", "study design", "test suite",
    "test coverage", "delta", "material", "package", "discovery", "hypothesis",
)
_ADJS = (
    "large small significant moderate consistent positive negative robust systematic "
    "statistical empirical overall typical linear logistic multiple normal reliable "
    "stable relative partial"
).split()
_VERBS3 = (
    "shows suggests affects explains reflects supports limits shapes predicts "
    "reduces increases follows precedes matches"
).split()
_VERBS_PAST = (
    "examined computed collected compared measured reported inspected recorded "
    "summarized estimated derived tracked"
).split()
_PLURALS = (
    "releases projects modules teams repositories developers commits builds files "
    "studies reviews interviews"
).split()
_OPENERS = (
    "", "In this study, ", "Overall, ", "As expected, ", "In contrast, ",
    "For each project, ", "Across releases, ", "In practice, ", "Taken together, ",
)
_DAMAGED_OPENERS = ("In the authors’ view, ", "Between {y1}–{y2}, ", "From the team’s perspective, ")
_TEMPLATES = (
    "{o}the {a} {n1} {v3} the {n2} of the {n3}",
    "{o}we {vp} the {n1} for each {n2} and {vp2} the {a} {n3}",
    "{o}this {n1} {v3} how the {n2} and the {n3} change over time",
    "{o}our {n1} of the {n2} {v3} the {a} {n3} across {k} {pl}",
    "{o}the {n1} was {vp} from {k} {pl} and the {n2} {v3} the {n3}",
)
_BARRIERS = (" [{i}].", " (Table {i}).", " (Fig. {i}).", " (n = {k}).", " (p = 0.0{d}).")
_LIGATURES = (("fi", "\ufb01"), ("fl", "\ufb02"), ("ff", "\ufb00"))
_LONG_WORD = re.compile(r"[A-Za-z]{8,}")


def _barrier(rng: random.Random) -> str:
    return rng.choice(_BARRIERS).format(i=rng.randint(1, 60), k=rng.randint(12, 900), d=rng.randint(1, 9))


def _sentence(rng: random.Random, near: float, damaged: bool) -> str:
    def noun() -> str:
        return rng.choice(_NEAR_NOUNS if rng.random() < near else _PLAIN_NOUNS)

    opener = rng.choice(_OPENERS)
    if damaged and rng.random() < 0.3:
        y1 = rng.randint(2001, 2015)
        opener = rng.choice(_DAMAGED_OPENERS).format(y1=y1, y2=y1 + rng.randint(1, 5))
    s = rng.choice(_TEMPLATES).format(
        o=opener, a=rng.choice(_ADJS), n1=noun(), n2=noun(), n3=noun(),
        v3=rng.choice(_VERBS3), vp=rng.choice(_VERBS_PAST), vp2=rng.choice(_VERBS_PAST),
        k=rng.randint(3, 40), pl=rng.choice(_PLURALS),
    )
    s = s[0].upper() + s[1:]
    if damaged:
        s = _damage_prose(rng, s)
    return s + _barrier(rng)


def _damage_prose(rng: random.Random, s: str) -> str:
    if rng.random() < 0.3:
        for plain, lig in _LIGATURES:
            if plain in s:
                s = s.replace(plain, lig, 1)
                break
    words = list(_LONG_WORD.finditer(s))
    if words and rng.random() < 0.25:
        m = rng.choice(words)
        cut = m.start() + len(m.group()) // 2
        s = s[:cut] + "\u00ad" + s[cut:]
    words = list(_LONG_WORD.finditer(s))
    if words and rng.random() < 0.3:
        m = rng.choice(words)
        cut = m.start() + rng.randint(3, len(m.group()) - 3)
        s = s[:cut] + "-\r\n" + s[cut:]
    return s


def _filler_pool(view: BundleView, size: int, near: float, damaged: bool) -> list[str]:
    """Inert filler sentences. The pool is the same for every benchmark
    seed, so the seed moves plantings and order but not the amount of work."""
    rng = random.Random(POOL_SEED)
    pool: list[str] = []
    while len(pool) < size:
        unit = _sentence(rng, near, damaged)
        if len(normalize_current(unit)) >= 80 and view.inert_filler(unit):
            pool.append(unit)
    return pool


# ---------------------------------------------------------------- plantings

@dataclass(frozen=True)
class Planting:
    analyzer: str
    kind: str  # exact | typo | negated | trap
    damage: str  # none | ligature | en_dash | apostrophe | soft_hyphen | line_break
    text: str


def _damage_primary(rng: random.Random, primary: str) -> tuple[str, str]:
    options = []
    for plain, lig in _LIGATURES:
        if plain in primary:
            options.append(("ligature", primary.replace(plain, lig, 1)))
            break
    if re.search(r"[A-Za-z]-[A-Za-z]", primary):
        options.append(("en_dash", re.sub(r"(?<=[A-Za-z])-(?=[A-Za-z])", "\u2013", primary, count=1)))
    if "'" in primary:
        options.append(("apostrophe", primary.replace("'", "\u2019")))
    long_words = list(re.finditer(r"[A-Za-z]{6,}", primary))
    if long_words:
        m = max(long_words, key=lambda w: len(w.group()))
        cut = m.start() + len(m.group()) // 2
        options.append(("soft_hyphen", primary[:cut] + "\u00ad" + primary[cut:]))
        options.append(("line_break", primary[:cut] + "-\r\n" + primary[cut:]))
    return rng.choice(options) if options else ("none", primary)


def _typo_primary(rng: random.Random, primary: str) -> str | None:
    """One letter edit strictly inside a word of the primary."""
    words = list(re.finditer(r"[A-Za-z]{4,}", primary))
    if not words:
        return None
    letters = "abcdefghijklmnopqrstuvwxyz"
    target = normalize_current(primary)
    for _ in range(30):
        m = rng.choice(words)
        i = m.start() + rng.randint(1, len(m.group()) - 3)
        op = rng.choice(("sub", "del", "ins", "swap"))
        if op == "sub":
            variant = primary[:i] + rng.choice(letters.replace(primary[i].lower(), "")) + primary[i + 1:]
        elif op == "del":
            variant = primary[:i] + primary[i + 1:]
        elif op == "ins":
            variant = primary[:i] + rng.choice(letters) + primary[i:]
        else:
            if primary[i] == primary[i + 1]:
                continue
            variant = primary[:i] + primary[i + 1] + primary[i] + primary[i + 2:]
        if normalize_current(variant) != target:
            return variant
    return None


def _chunk(view: BundleView, rng: random.Random, analyzer: str, raw_line: str, primary: str) -> str | None:
    line = raw_line.replace("[[[" + _primary(raw_line) + "]]]", primary)
    unit = strip_markers(line) + _barrier(rng)
    return unit if view.chunk_ok(unit, analyzer) else None


def _plant(view: BundleView, rng: random.Random, kind: str, analyzer: str, damage_rate: float) -> Planting | None:
    if kind == "trap":
        unit = rng.choice(TRAP_CHUNKS) + _barrier(rng)
        return Planting(analyzer, kind, "none", unit) if view.chunk_ok(unit, analyzer) else None
    if kind == "negated":
        line = rng.choice(view.negatives[analyzer])
        unit = _chunk(view, rng, analyzer, line, _primary(line))
        return Planting(analyzer, kind, "none", unit) if unit else None
    if kind == "typo":
        line = rng.choice(view.fuzzy_primary[analyzer])
        variant = _typo_primary(rng, _primary(line))
        unit = _chunk(view, rng, analyzer, line, variant) if variant else None
        return Planting(analyzer, kind, "none", unit) if unit else None
    line = rng.choice(view.positives[analyzer])
    damage, primary = "none", _primary(line)
    if rng.random() < damage_rate:
        damage, primary = _damage_primary(rng, primary)
    unit = _chunk(view, rng, analyzer, line, primary)
    return Planting(analyzer, kind, damage, unit) if unit else None


_KIND_WEIGHTS = (("exact", 0.45), ("typo", 0.25), ("negated", 0.15), ("trap", 0.15))


def _plan_chunks(view: BundleView, rng: random.Random, count: int, damage_rate: float) -> list[Planting]:
    kinds, weights = zip(*_KIND_WEIGHTS)
    positive: set[str] = set()
    negated: set[str] = set()
    out: list[Planting] = []
    while len(out) < count:
        kind = rng.choices(kinds, weights)[0]
        if kind == "trap":
            analyzer = view.trap_owner
        elif kind == "negated":
            pool = [n for n in view.classifiers if view.negatives[n] and n not in positive]
            analyzer = rng.choice(pool)
        else:
            pool = [n for n in view.classifiers if n not in negated
                    and (kind == "exact" or view.fuzzy_primary[n])]
            analyzer = rng.choice(pool)
        planting = _plant(view, rng, kind, analyzer, damage_rate)
        if planting is None:
            continue
        out.append(planting)
        if kind in ("exact", "typo"):
            positive.add(analyzer)
        elif kind == "negated":
            negated.add(analyzer)
    return out


# ---------------------------------------------------------------- documents

def _front_matter(rng: random.Random, with_dotted_capital_i: bool) -> list[str]:
    title = (f"An empirical study of {rng.choice(_PLAIN_NOUNS)} and {rng.choice(_PLAIN_NOUNS)} "
             f"practice in {rng.randint(4, 90)} open source projects [1].")
    if with_dotted_capital_i:
        authors = "İpek Yılmaz, İsmail Kaya and Ömer Çelik (İstanbul Technical University, Türkiye)."
    else:
        authors = f"Author {rng.randint(1, 99)}, Author {rng.randint(100, 199)} (University {rng.randint(1, 40)})."
    return [title, authors]


def _page_header(rng: random.Random, journal: str, year: int) -> str:
    first = rng.randint(1, 400)
    return f"{journal} ({year}) {rng.randint(1, 40)}:{first}–{first + rng.randint(10, 40)}."


def _spaced_slots(rng: random.Random, n_units: int, count: int, gap: int = 12) -> list[int]:
    """Insertion slots in [4, n_units - gap] at least `gap` units apart."""
    if count == 0:
        return []
    span = (n_units - 4 - gap) / count
    if span < gap + 1:
        raise ValueError(f"{count} chunks do not fit in {n_units} filler units")
    return [4 + int(j * span) + rng.randrange(int(span) - gap) for j in range(count)]


def _assemble(rng, front, filler, chunks, crlf, header=None) -> str:
    """Join units into one text, planting chunks at spaced slots, and check
    that planted chunks sit MIN_CHUNK_GAP normalized chars apart."""
    units = list(filler)
    slots = _spaced_slots(rng, len(units), len(chunks))
    for slot, planting in sorted(zip(slots, chunks), key=lambda x: x[0], reverse=True):
        units.insert(slot, planting.text)
    units = front + units
    chunk_texts = {c.text for c in chunks}
    parts = [units[0]]
    offset = len(normalize_current(units[0])) + 1
    last_chunk = -MIN_CHUNK_GAP
    for i, unit in enumerate(units[1:], start=1):
        if header and i % 40 == 0:
            page = header()
            parts.append("\r\n\f" + page + "\r\n")
            offset += len(normalize_current(page)) + 1
        else:
            parts.append(rng.choice((" ", " ", "\r\n")) if crlf else " ")
        if unit in chunk_texts:
            if offset - last_chunk < MIN_CHUNK_GAP:
                raise AssertionError(f"planted chunks only {offset - last_chunk} chars apart")
            last_chunk = offset
        parts.append(unit)
        offset += len(normalize_current(unit)) + 1
    return "".join(parts) + ("\r\n" if crlf else "\n")


class _Deck:
    """Deals pool units without replacement, reshuffling when exhausted,
    so every unit is used about equally often whatever the seed."""

    def __init__(self, rng: random.Random, pool: list[str]):
        self.rng, self.pool, self.hand = rng, pool, []

    def deal(self, words: int) -> list[str]:
        out: list[str] = []
        while words > 0:
            if not self.hand:
                self.hand = list(self.pool)
                self.rng.shuffle(self.hand)
            out.append(self.hand.pop())
            words -= word_count(out[-1])
        return out


def _truth_for(chunks: list[Planting], view: BundleView) -> tuple[set[str], set[str]]:
    present: set[str] = set()
    clean: set[str] = set()
    for c in chunks:
        if c.kind in ("exact", "typo"):
            present |= set(view.tags[c.analyzer])
            if c.damage == "none":
                clean |= set(view.tags[c.analyzer])
    return present, clean


def _noisy_dense(view: BundleView, seed: int, docs: int, words: int):
    rng = random.Random(seed)
    deck = _Deck(rng, _filler_pool(view, 1200, near=0.6, damaged=True))
    # planting counts are the same spread over 8-20 for every seed, dealt in
    # blocks of five papers, so every seed's corpus costs about the same
    spread = [8 + (12 * i) // max(docs - 1, 1) for i in range(docs)]
    blocks = max(docs // 5, 1)
    counts = []
    for b in range(blocks):
        part = spread[b::blocks]
        rng.shuffle(part)
        counts += part
    journals = ("Empirical Software Engineering", "Journal of Systems and Software",
                "Information and Software Technology", "IEEE Transactions on Software Engineering",
                "Software Quality Journal")
    for i, count in enumerate(counts):
        journal, year = rng.choice(journals), rng.randint(2011, 2015)
        chunks = _plan_chunks(view, rng, count, damage_rate=0.5)
        text = _assemble(rng, _front_matter(rng, True), deck.deal(words), chunks, crlf=True,
                         header=lambda: _page_header(rng, journal, year))
        yield f"nd-{i:04d}", journal, year, text, STATUS_ANALYZED, chunks


def _many_short(view: BundleView, seed: int, docs: int):
    rng = random.Random(seed)
    deck = _Deck(rng, _filler_pool(view, 1200, near=0.02, damaged=False))
    # every block of 20 consecutive papers has the same mix of kinds, lengths
    # and plantings, so every seed's corpus costs about the same
    block = [STATUS_SHORT] * 12 + [STATUS_SECONDARY] * 3 + [STATUS_ANALYZED] * 5
    if docs % len(block):
        raise ValueError(f"many-short needs a multiple of {len(block)} papers, got {docs}")
    blocks = docs // len(block)
    short_words = [1800 + (2050 * i) // max(12 * blocks - 1, 1) for i in range(12 * blocks)]
    long_words = [4050 + (450 * i) // max(8 * blocks - 1, 1) for i in range(8 * blocks)]
    plan = []  # (status, words, planted chunks)
    for b in range(blocks):
        shorts, longs, counts = short_words[b::blocks], long_words[b::blocks], list(range(5))
        for seq in (block, shorts, longs, counts):
            rng.shuffle(seq)
        plan += [(kind, shorts.pop() if kind == STATUS_SHORT else longs.pop(),
                  counts.pop() if kind == STATUS_ANALYZED else 0) for kind in block]
    secondary_lines = [ln for name in view.excluders for ln in view.positives[name]]
    for i, (kind, target, count) in enumerate(plan):
        journal, year = f"J{rng.randint(1, 40):02d}", rng.randint(2000, 2020)
        front = _front_matter(rng, False)
        chunks = _plan_chunks(view, rng, count, damage_rate=0.0)
        if kind == STATUS_SECONDARY:
            unit = None
            while unit is None:
                line = rng.choice(secondary_lines)
                owner = next(n for n in view.excluders if line in view.positives[n])
                unit = _chunk(view, rng, owner, line, _primary(line))
            front.append(unit)
        text = _assemble(rng, front, deck.deal(target - 20), chunks, crlf=False)
        n = word_count(text)
        if (n < SHORT_GATE) != (kind == STATUS_SHORT) or abs(n - SHORT_GATE) < 50:
            raise AssertionError(f"word count {n} does not clear the {SHORT_GATE}-word gate")
        if kind == STATUS_SECONDARY:
            norm = normalize_current(text)
            if norm.index(normalize_current(front[-1])) + 200 > 0.05 * len(norm):
                raise AssertionError("secondary-study chunk falls outside the prefix region")
        yield f"ms-{i:04d}", journal, year, text, kind, chunks


# ---------------------------------------------------------------- files

def digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_own(view: BundleView, out: Path, docs) -> Truth:
    (out / "docs").mkdir(parents=True)
    truth = Truth()
    manifest, plantings, truth_rows = [], [], []
    all_tags = sorted({t for n in view.classifiers for t in view.tags[n]})
    for pid, journal, year, text, status, chunks in docs:
        (out / "docs" / f"{pid}.txt").write_bytes(text.encode("utf-8"))
        manifest.append([pid, journal, year, f"docs/{pid}.txt"])
        truth.status[pid] = status
        truth.present[pid], truth.clean[pid] = _truth_for(chunks, view)
        plantings += [[pid, c.analyzer, c.kind, c.damage] for c in chunks]
        if status == STATUS_ANALYZED:
            truth_rows += [[pid, t, "present" if t in truth.present[pid] else "absent",
                            int(t in truth.clean[pid])] for t in all_tags]
    _write_csv(out / "manifest.csv", ["paper_id", "journal", "year", "path"], manifest)
    _write_csv(out / "plantings.csv", ["paper_id", "analyzer", "kind", "damage"], plantings)
    _write_csv(out / "truth.csv", ["paper_id", "tag", "label", "clean"], truth_rows)
    _write_csv(out / "status.csv", ["paper_id", "status"], sorted(truth.status.items()))
    return truth


def _reference(bundle, out: Path, seed: int) -> tuple[str, Truth, int]:
    from litscan.synthetic import generate_corpus

    corpus = generate_corpus(bundle, out, n_docs=200, words_per_doc=6000, seed=REFERENCE_CORPUS_SEED)
    digest = digest_dir(out)
    truth = Truth()
    for plan in corpus.plans:
        truth.status[plan.paper_id] = STATUS_ANALYZED
        truth.present[plan.paper_id] = set()
    with open(corpus.truth_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["label"] == "present":
                truth.present[row["paper_id"]].add(row["tag"])
    truth.clean = {pid: set(tags) for pid, tags in truth.present.items()}
    with open(corpus.manifest_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    random.Random(seed).shuffle(body)
    _write_csv(corpus.manifest_path, rows[0], body)
    return digest, truth, len(body)


def build(name: str, bundle, out: Path, seed: int, docs: int | None = None) -> Workload:
    """Write workload `name` for `seed` under the empty directory `out`.

    `docs` shrinks the noisy-dense and many-short workloads for tests.
    """
    if name == "reference":
        digest, truth, papers = _reference(bundle, out, seed)
    else:
        view = BundleView(bundle)
        if name == "noisy-dense":
            gen = _noisy_dense(view, seed, docs or 25, 20000)
        elif name == "many-short":
            gen = _many_short(view, seed, docs or 600)
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        truth = _write_own(view, out, gen)
        digest, papers = digest_dir(out), len(truth.status)
    return Workload(out / "manifest.csv", papers, digest, truth)
