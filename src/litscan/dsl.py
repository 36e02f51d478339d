"""Parser for analyzer definition files.

An analyzer bundles everything needed to detect one technique: positive and
negative annotated examples, skip matchers, synonyms for the primary term,
and the tags its evidence contributes to.

File format (UTF-8, a byte-order mark allowed, one analyzer per file):

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
[skip] section. Synonym lists may wrap across lines. Each header key may
be given once. A tag may not be named like a results.csv column, and a
skip pattern may not match the empty string.
"""

import re
from pathlib import Path
from typing import NamedTuple

from .ingest import RESULT_COLUMNS, normalize

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


class ExampleTemplate(NamedTuple):
    """One annotated example line: its normalized primary phrase and its
    normalized supports, deduplicated, so each distinct phrase counts once."""

    raw_line: str
    normalized_primary: str
    normalized_supports: tuple[str, ...]


class _AnalyzerFields(NamedTuple):
    name: str
    positives: tuple[ExampleTemplate, ...]
    negatives: tuple[ExampleTemplate, ...]
    skips: tuple[re.Pattern, ...]
    synonyms: tuple[str, ...]
    tags: tuple[str, ...]
    region_fraction: float
    mode: str  # "classify" | "exclude"
    # derived by AnalyzerSpec, which `_replace` does not call: `synonyms`
    # normalized, and every candidate term of the examples
    normalized_synonyms: tuple[str, ...]
    terms: tuple[str, ...]


class AnalyzerSpec(_AnalyzerFields):
    __slots__ = ()

    def __new__(
        cls,
        name: str,
        positives: tuple[ExampleTemplate, ...],
        negatives: tuple[ExampleTemplate, ...],
        skips: tuple[re.Pattern, ...],
        synonyms: tuple[str, ...],
        tags: tuple[str, ...],
        region_fraction: float = 1.0,
        mode: str = "classify",
    ):
        normalized = tuple(normalize_phrase(s) for s in synonyms)
        terms = dict.fromkeys(t for ex in positives + negatives for t in (ex.normalized_primary, *normalized))
        return super().__new__(
            cls, name, positives, negatives, skips, synonyms, tags, region_fraction, mode, normalized, tuple(terms)
        )

    def candidate_terms(self, example: ExampleTemplate) -> tuple[str, ...]:
        """Normalized search terms for one example: its primary plus every
        analyzer synonym, deduplicated after normalization."""
        return tuple(dict.fromkeys((example.normalized_primary, *self.normalized_synonyms)))


def parse_skip_matcher(token: str) -> re.Pattern:
    """The compiled skip regex of a `#RegexpMatcher(r"..."i)#` token; the
    trailing i makes it case-insensitive."""
    m = _SKIP_TOKEN_RE.match(token.strip())
    if m is None:
        raise ValueError(f"malformed skip matcher: {token!r}")
    try:
        skip = re.compile(m.group(1), re.IGNORECASE if m.group(2) else 0)
    except re.error as exc:
        raise ValueError(f"skip matcher pattern does not compile: {exc}") from exc
    if skip.match(""):
        # an empty match inside a span would cancel every match it falls in
        raise ValueError(f"skip matcher pattern matches the empty string: {skip.pattern!r}")
    return skip


def _parse_example(line: str) -> ExampleTemplate:
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
    primary = normalize_phrase(line[start + 3 : end])
    if not primary:
        raise ValueError("empty primary phrase")
    if line.count("__") % 2 != 0:
        raise ValueError("odd count of __ markers")
    rest = line[:start] + line[end + 3 :]
    supports = [normalize_phrase(sup) for sup in rest.split("__")[1::2]]
    if not all(supports):
        raise ValueError("empty support phrase")
    return ExampleTemplate(line, primary, tuple(dict.fromkeys(supports)))


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
    skips: list[re.Pattern] = []
    synonyms: list[str] = []
    errors: list[tuple[int, str]] = []
    keys_given: set[str] = set()
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
            if key in keys_given:
                errors.append((lineno, f"header key {key!r} given twice"))
                continue
            keys_given.add(key)
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
                reserved = [t for t in tags if t in RESULT_COLUMNS]
                if reserved:
                    errors.append((lineno, f"tags name results.csv columns: {reserved}"))
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
                ex = _parse_example(line.strip())
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
            parts = _SYNONYM_ITEM_RE.split(stripped)  # text between items, then an item, ...
            leftover = "".join(parts[::2]).replace(",", "").strip()
            if leftover:
                errors.append((lineno, f"malformed synonyms line (unquoted text {leftover!r})"))
                continue
            synonyms.extend(parts[1::2])

    spec = AnalyzerSpec(
        name=name,
        positives=tuple(positives),
        negatives=tuple(negatives),
        skips=tuple(skips),
        synonyms=tuple(synonyms),
        tags=tuple(tags),
        region_fraction=region_fraction,
        mode=mode,
    )
    empty_syn = [s for s, norm in zip(spec.synonyms, spec.normalized_synonyms) if not norm]
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
    return spec


def load_bundle(directory: str | Path) -> list[AnalyzerSpec]:
    """Parse every *.analyzer file in a directory into specs sorted by name.

    One BundleError lists every file that does not parse and every analyzer
    name given by a second file.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.analyzer"))
    if not files:
        raise BundleError(f"{directory}: no *.analyzer files found")
    specs: list[AnalyzerSpec] = []
    file_of: dict[str, str] = {}  # analyzer name -> the file that gave it first
    problems: list[str] = []
    for f in files:
        try:
            spec = parse_analyzer(f.read_text(encoding="utf-8-sig"), source_name=f.name)
        except AnalyzerParseError as exc:
            problems.append(str(exc))
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"{f.name}: unreadable ({exc})")
        else:
            if spec.name in file_of:
                problems.append(f"duplicate analyzer name {spec.name!r} in {file_of[spec.name]} and {f.name}")
            else:
                file_of[spec.name] = f.name
                specs.append(spec)
    if problems:
        raise BundleError("bundle failed to load:\n  " + "\n  ".join(problems))
    return sorted(specs, key=lambda s: s.name)
