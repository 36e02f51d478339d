"""Parser for analyzer definition files.

An analyzer bundles everything needed to detect one technique: positive and
negative annotated examples, skip matchers, synonyms for the primary term,
and the tags its evidence contributes to.

File format (UTF-8, one analyzer per file):

    analyzer: <identifier>
    tags: <id>, <id>, ...
    region: full | prefix:<fraction>        (optional, default full)
    mode: classify | exclude                (optional, default classify)
    [positive]
    We __used__ a [[[Student's t-test]]]
    [negative]
    We __did not use__ a [[[Student's t-test]]] to
    [skip]
    #RegexpMatcher(r"[a-zA-Z]{1}t(\\s+|-)test"i)#
    [synonyms]
    "Student t test", "t-test", ...

In example lines the [[[ ]]] markers enclose the primary match target and
each __ __ pair encloses one supporting phrase. Lines whose first non-space
character is '#' are comments, except #RegexpMatcher(...)# tokens inside the
[skip] section. Synonym lists may wrap across lines.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .ingest import normalize

_SECTION_NAMES = ("positive", "negative", "skip", "synonyms")
_HEADER_KEYS = ("analyzer", "tags", "region", "mode")
_SKIP_TOKEN_RE = re.compile(r'^#RegexpMatcher\(r"(.*)"(i?)\)#$')
_SYNONYM_ITEM_RE = re.compile(r'"([^"]*)"')
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
_SECTION_RE = re.compile(r"^\[([A-Za-z_]+)\]$")


class AnalyzerParseError(Exception):
    """One or more problems in a single analyzer file."""

    def __init__(self, source_name: str, errors: list[tuple[int, str]]):
        self.source_name = source_name
        self.errors = errors
        lines = "; ".join(f"line {n}: {msg}" for n, msg in errors)
        super().__init__(f"{source_name}: {lines}")


class BundleError(Exception):
    """Aggregated parse failures across a bundle directory."""


def normalize_phrase(phrase: str) -> str:
    return normalize(phrase)[0]


@dataclass(frozen=True)
class ExampleTemplate:
    """One annotated example line: a primary phrase plus ordered supports.
    The normalized forms are derived from them; the normalized supports
    are deduplicated, so each distinct phrase counts once."""

    raw_line: str
    primary: str
    supports: tuple[str, ...]
    polarity: str  # "positive" | "negative"
    normalized_primary: str = field(init=False)
    normalized_supports: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "normalized_primary", normalize_phrase(self.primary))
        supports = (normalize_phrase(s) for s in self.supports)
        object.__setattr__(self, "normalized_supports", tuple(dict.fromkeys(s for s in supports if s)))


@dataclass(frozen=True)
class SkipMatcher:
    """A skip regex; `compiled` is derived from the pattern and its flag, and
    a pattern that does not compile raises re.error."""

    pattern: str
    case_insensitive: bool
    compiled: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        flags = re.IGNORECASE if self.case_insensitive else 0
        object.__setattr__(self, "compiled", re.compile(self.pattern, flags))

    def token(self) -> str:
        flags = "i" if self.case_insensitive else ""
        return f'#RegexpMatcher(r"{self.pattern}"{flags})#'


@dataclass(frozen=True)
class AnalyzerSpec:
    name: str
    positives: tuple[ExampleTemplate, ...]
    negatives: tuple[ExampleTemplate, ...]
    skips: tuple[SkipMatcher, ...]
    synonyms: tuple[str, ...]
    tags: tuple[str, ...]
    region_fraction: float = 1.0
    mode: str = "classify"  # "classify" | "exclude"
    # derived: `synonyms` normalized, and every candidate term of the examples
    normalized_synonyms: tuple[str, ...] = field(init=False, repr=False)
    terms: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "normalized_synonyms", tuple(normalize_phrase(s) for s in self.synonyms))
        terms = (t for ex in self.positives + self.negatives for t in self.candidate_terms(ex))
        object.__setattr__(self, "terms", tuple(dict.fromkeys(terms)))

    def candidate_terms(self, example: ExampleTemplate) -> tuple[str, ...]:
        """Normalized search terms for one example: its primary plus every
        analyzer synonym, deduplicated after normalization."""
        return tuple(dict.fromkeys((example.normalized_primary, *self.normalized_synonyms)))


def parse_skip_matcher(token: str) -> SkipMatcher:
    m = _SKIP_TOKEN_RE.match(token.strip())
    if m is None:
        raise ValueError(f"malformed skip matcher: {token!r}")
    try:
        return SkipMatcher(pattern=m.group(1), case_insensitive="i" in m.group(2))
    except re.error as exc:
        raise ValueError(f"skip matcher pattern does not compile: {exc}") from exc


def _parse_example(line: str, polarity: str) -> ExampleTemplate:
    opens = line.count("[[[")
    closes = line.count("]]]")
    if opens == 0 and closes == 0:
        raise ValueError("example has no [[[...]]] primary marker")
    if opens != closes or opens > 1:
        if opens > closes:
            raise ValueError("unclosed primary marker")
        if closes > opens:
            raise ValueError("unopened primary marker")
        raise ValueError("more than one primary per example")
    start = line.index("[[[")
    end = line.index("]]]")
    if end < start:
        raise ValueError("unopened primary marker")
    primary = line[start + 3 : end]
    if not normalize_phrase(primary):
        raise ValueError("empty primary phrase")
    if line.count("__") % 2 != 0:
        raise ValueError("odd count of __ markers")
    rest = line[:start] + line[end + 3 :]
    pieces = rest.split("__")
    supports = []
    for idx in range(1, len(pieces), 2):
        sup = pieces[idx]
        if not normalize_phrase(sup):
            raise ValueError("empty support phrase")
        supports.append(sup)
    return ExampleTemplate(line, primary, tuple(supports), polarity)


def _is_comment(line: str) -> bool:
    s = line.lstrip()
    return s.startswith("#") and not s.startswith("#RegexpMatcher(")


def parse_analyzer(source: str, source_name: str = "<string>") -> AnalyzerSpec:
    """Parse one analyzer file. Raises AnalyzerParseError listing every
    problem with its line number."""
    name: str | None = None
    tags: list[str] = []
    region_fraction = 1.0
    mode = "classify"
    positives: list[ExampleTemplate] = []
    negatives: list[ExampleTemplate] = []
    skips: list[SkipMatcher] = []
    synonym_chunks: list[str] = []
    errors: list[tuple[int, str]] = []
    section: str | None = None

    for lineno, rawline in enumerate(source.splitlines(), start=1):
        line = rawline.rstrip()
        if not line.strip() or _is_comment(line):
            continue
        stripped = line.strip()
        header = _SECTION_RE.match(stripped)
        if header:
            sec = header.group(1).lower()
            if sec not in _SECTION_NAMES:
                errors.append((lineno, f"unknown section name [{sec}]"))
                section = None
            else:
                section = sec
            continue
        if section is None:
            key, sep, value = stripped.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key not in _HEADER_KEYS or not sep:
                errors.append((lineno, f"expected a header line or section, got {stripped!r}"))
                continue
            if key == "analyzer":
                if not _IDENT_RE.match(value):
                    errors.append((lineno, f"invalid analyzer name {value!r}"))
                else:
                    name = value
            elif key == "tags":
                tags = [t.strip() for t in value.split(",") if t.strip()]
                bad = [t for t in tags if not _IDENT_RE.match(t)]
                if bad:
                    errors.append((lineno, f"invalid tag identifiers: {bad}"))
            elif key == "mode":
                if value not in ("classify", "exclude"):
                    errors.append((lineno, f"mode must be classify or exclude, got {value!r}"))
                else:
                    mode = value
            elif key == "region":
                if value == "full":
                    region_fraction = 1.0
                elif value.startswith("prefix:"):
                    try:
                        frac = float(value[len("prefix:"):])
                    except ValueError:
                        frac = -1.0
                    if not 0.0 < frac <= 1.0:
                        errors.append((lineno, f"region fraction must be in (0, 1]: {value!r}"))
                    else:
                        region_fraction = frac
                else:
                    errors.append((lineno, f"region must be full or prefix:<fraction>, got {value!r}"))
            continue
        if section in ("positive", "negative"):
            try:
                ex = _parse_example(line.strip(), section)
            except ValueError as exc:
                errors.append((lineno, str(exc)))
            else:
                (positives if section == "positive" else negatives).append(ex)
        elif section == "skip":
            try:
                skips.append(parse_skip_matcher(stripped))
            except ValueError as exc:
                errors.append((lineno, str(exc)))
        elif section == "synonyms":
            leftover = _SYNONYM_ITEM_RE.sub("", stripped).replace(",", "").strip()
            if leftover:
                errors.append((lineno, f"malformed synonyms line (unquoted text {leftover!r})"))
                continue
            synonym_chunks.append(stripped)

    synonyms: list[str] = []
    for chunk in synonym_chunks:
        synonyms.extend(_SYNONYM_ITEM_RE.findall(chunk))
    empty_syn = [s for s in synonyms if not normalize_phrase(s)]
    if empty_syn:
        errors.append((0, f"synonyms empty after normalization: {empty_syn}"))

    if name is None:
        errors.append((0, "missing `analyzer:` header"))
    if not positives:
        errors.append((0, "no positive examples"))
    if mode == "classify" and not tags:
        errors.append((0, "tags must be non-empty for mode=classify"))
    if errors:
        raise AnalyzerParseError(source_name, sorted(errors))
    return AnalyzerSpec(
        name=name,
        positives=tuple(positives),
        negatives=tuple(negatives),
        skips=tuple(skips),
        synonyms=tuple(synonyms),
        tags=tuple(tags),
        region_fraction=region_fraction,
        mode=mode,
    )


def serialize_analyzer(spec: AnalyzerSpec) -> str:
    """Render a spec back to the file format. parse(serialize(spec)) is
    structurally equal to spec."""
    out = [f"analyzer: {spec.name}"]
    if spec.tags:
        out.append("tags: " + ", ".join(spec.tags))
    if spec.region_fraction != 1.0:
        out.append(f"region: prefix:{spec.region_fraction!r}")
    if spec.mode != "classify":
        out.append(f"mode: {spec.mode}")
    out.append("")
    out.append("[positive]")
    out.extend(ex.raw_line for ex in spec.positives)
    if spec.negatives:
        out.append("")
        out.append("[negative]")
        out.extend(ex.raw_line for ex in spec.negatives)
    if spec.skips:
        out.append("")
        out.append("[skip]")
        out.extend(sk.token() for sk in spec.skips)
    if spec.synonyms:
        out.append("")
        out.append("[synonyms]")
        out.append(", ".join(f'"{s}"' for s in spec.synonyms))
    return "\n".join(out) + "\n"


def load_bundle(directory: str | Path) -> list[AnalyzerSpec]:
    """Parse every *.analyzer file in a directory into specs sorted by name.

    Any parse error aborts the whole bundle with an aggregated listing;
    duplicate analyzer names are rejected.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.analyzer"))
    if not files:
        raise BundleError(f"{directory}: no *.analyzer files found")
    specs: list[AnalyzerSpec] = []
    problems: list[str] = []
    for f in files:
        try:
            specs.append(parse_analyzer(f.read_text(encoding="utf-8"), source_name=f.name))
        except AnalyzerParseError as exc:
            problems.append(str(exc))
        except OSError as exc:
            problems.append(f"{f.name}: unreadable ({exc})")
    if problems:
        raise BundleError("bundle failed to load:\n  " + "\n  ".join(problems))
    by_name: dict[str, str] = {}
    for spec, f in zip(specs, files):
        if spec.name in by_name:
            problems.append(f"duplicate analyzer name {spec.name!r} in {by_name[spec.name]} and {f.name}")
        else:
            by_name[spec.name] = f.name
    if problems:
        raise BundleError("bundle failed to load:\n  " + "\n  ".join(problems))
    return sorted(specs, key=lambda s: s.name)
