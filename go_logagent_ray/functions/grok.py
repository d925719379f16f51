"""Grok pattern dictionary + compiler (pure functions, no Ray).

Reimplements the pattern language of the reference's grok filter
(``ref: filter/grok/`` [U-spec], SURVEY.md §2.2 F1): ``%{PATTERN}``,
``%{PATTERN:name}`` and ``%{PATTERN:name:type}`` tokens resolved against a
pattern dictionary and expanded into one compiled regex with named capture
groups. The dictionary below is a subset of the public logstash/grok base
patterns — only RE2-compatible constructs (no backrefs, no lookaround) so
the compiled pattern runs on Arrow's RE2 engine via
``pyarrow.compute.extract_regex`` (vectorized, zero-copy input).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# RE2-safe subset of the public logstash base pattern dictionary.
BASE_PATTERNS: dict[str, str] = {
    "WORD": r"\b\w+\b",
    "NOTSPACE": r"\S+",
    "SPACE": r"\s*",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "INT": r"[+-]?(?:[0-9]+)",
    "NONNEGINT": r"\b[0-9]+\b",
    "NUMBER": r"[+-]?(?:[0-9]+(?:\.[0-9]+)?)",
    "BASE16NUM": r"[+-]?(?:0x)?(?:[0-9A-Fa-f]+)",
    "LOGLEVEL": (
        r"[Aa]lert|ALERT|[Tt]race|TRACE|[Dd]ebug|DEBUG|[Nn]otice|NOTICE|"
        r"[Ii]nfo|INFO|[Ww]arn?(?:ing)?|WARN?(?:ING)?|[Ee]rr?(?:or)?|"
        r"ERR?(?:OR)?|[Cc]rit?(?:ical)?|CRIT?(?:ICAL)?|[Ff]atal|FATAL|"
        r"[Ss]evere|SEVERE|EMERG(?:ENCY)?|[Ee]merg(?:ency)?"
    ),
    "USERNAME": r"[a-zA-Z0-9._-]+",
    "UUID": r"[A-Fa-f0-9]{8}-(?:[A-Fa-f0-9]{4}-){3}[A-Fa-f0-9]{12}",
    "IPV4": r"(?:[0-9]{1,3}\.){3}[0-9]{1,3}",
    "HOSTNAME": r"\b(?:[0-9A-Za-z][0-9A-Za-z-]{0,62})(?:\.(?:[0-9A-Za-z][0-9A-Za-z-]{0,62}))*\.?\b",
    "TIMESTAMP_ISO8601": (
        r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}"
        r"(?::[0-9]{2}(?:\.[0-9]+)?)?(?:Z|[+-][0-9]{2}:?[0-9]{2})?"
    ),
    "QUOTEDSTRING": r"\"[^\"]*\"|'[^']*'",
    "PATH": r"(?:/[\w.-]+)+",
    # --- extended RE2-safe subset of the public logstash base dictionary
    # (numbers / users / net) ---
    "POSINT": r"\b[1-9][0-9]*\b",
    "BASE10NUM": r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)",
    "BASE16FLOAT": r"\b[+-]?(?:0x)?(?:[0-9A-Fa-f]+(?:\.[0-9A-Fa-f]*)?|\.[0-9A-Fa-f]+)\b",
    "USER": r"%{USERNAME}",
    "EMAILLOCALPART": r"[a-zA-Z][a-zA-Z0-9_.+-=:]+",
    "EMAILADDRESS": r"%{EMAILLOCALPART}@%{HOSTNAME}",
    "HTTPDUSER": r"%{EMAILADDRESS}|%{USER}",
    "IPV6": (
        r"(?:(?:[0-9A-Fa-f]{1,4}:){7}[0-9A-Fa-f]{1,4}|"
        r"(?:[0-9A-Fa-f]{1,4}:){1,7}:|"
        r"(?:[0-9A-Fa-f]{1,4}:){1,6}:[0-9A-Fa-f]{1,4}|"
        r"::(?:[Ff]{4}:)?%{IPV4}|"
        r"(?:[0-9A-Fa-f]{1,4}:){1,4}:%{IPV4})"
    ),
    "IP": r"(?:%{IPV6}|%{IPV4})",
    "IPORHOST": r"(?:%{IP}|%{HOSTNAME})",
    "HOSTPORT": r"%{IPORHOST}:%{POSINT}",
    "COMMONMAC": r"(?:[A-Fa-f0-9]{2}:){5}[A-Fa-f0-9]{2}",
    "WINDOWSMAC": r"(?:[A-Fa-f0-9]{2}-){5}[A-Fa-f0-9]{2}",
    "CISCOMAC": r"(?:[A-Fa-f0-9]{4}\.){2}[A-Fa-f0-9]{4}",
    "MAC": r"(?:%{CISCOMAC}|%{WINDOWSMAC}|%{COMMONMAC})",
    # --- dates / times ---
    "YEAR": r"(?:\d\d){1,2}",
    "MONTHNUM": r"(?:0?[1-9]|1[0-2])",
    "MONTHNUM2": r"(?:0[1-9]|1[0-2])",
    "MONTHDAY": r"(?:(?:0[1-9])|(?:[12][0-9])|(?:3[01])|[1-9])",
    "MONTH": (
        r"\b(?:[Jj]an(?:uary|uar)?|[Ff]eb(?:ruary|ruar)?|[Mm]ar(?:ch|z)?|"
        r"[Aa]pr(?:il)?|[Mm]a[yi]|[Jj]un[ei]?|[Jj]ul[yi]?|[Aa]ug(?:ust)?|"
        r"[Ss]ep(?:tember)?|[Oo]kt(?:ober)?|[Oo]ct(?:ober)?|"
        r"[Nn]ov(?:ember)?|[Dd]e[cz](?:ember)?)\b"
    ),
    "DAY": (
        r"(?:Mon(?:day)?|Tue(?:sday)?|Wed(?:nesday)?|Thu(?:rsday)?|"
        r"Fri(?:day)?|Sat(?:urday)?|Sun(?:day)?)"
    ),
    "HOUR": r"(?:2[0123]|[01]?[0-9])",
    "MINUTE": r"(?:[0-5][0-9])",
    "SECOND": r"(?:(?:[0-5][0-9]|60)(?:[:.,][0-9]+)?)",
    "TIME": r"%{HOUR}:%{MINUTE}(?::%{SECOND})?",
    "DATE_US": r"%{MONTHNUM}[/-]%{MONTHDAY}[/-]%{YEAR}",
    "DATE_EU": r"%{MONTHDAY}[./-]%{MONTHNUM}[./-]%{YEAR}",
    "DATE": r"%{DATE_US}|%{DATE_EU}",
    "DATESTAMP": r"%{DATE}[- ]%{TIME}",
    "ISO8601_TIMEZONE": r"(?:Z|[+-]%{HOUR}(?::?%{MINUTE}))",
    "TZ": r"(?:[PMCE][SD]T|UTC)",
    "HTTPDATE": r"%{MONTHDAY}/%{MONTH}/%{YEAR}:%{TIME} %{INT}",
    "SYSLOGTIMESTAMP": r"%{MONTH} +%{MONTHDAY} %{TIME}",
    "PROG": r"[\x21-\x5a\x5c\x5e-\x7e]+",
    "QS": r"%{QUOTEDSTRING}",
    # --- URIs ---
    "URIPROTO": r"[A-Za-z][A-Za-z0-9+\-.]+",
    "URIHOST": r"%{IPORHOST}(?::%{POSINT})?",
    "URIPATH": r"(?:/[A-Za-z0-9$.+!*'(){},~:;=@#%&_\-]*)+",
    "URIPARAM": r"\?[A-Za-z0-9$.+!*'|(){},~@#%&/=:;_?\-\[\]<>]*",
    "URIPATHPARAM": r"%{URIPATH}(?:%{URIPARAM})?",
    # --- composite log-line formats (nested captures resolve at
    # compile time, logstash-style) ---
    "COMMONAPACHELOG": (
        r"%{IPORHOST:clientip} %{HTTPDUSER:ident} %{HTTPDUSER:auth} "
        r"\[%{HTTPDATE:timestamp}\] \"(?:%{WORD:verb} %{NOTSPACE:request}"
        r"(?: HTTP/%{NUMBER:httpversion})?|%{DATA:rawrequest})\" "
        r"%{NUMBER:response} (?:%{NUMBER:bytes}|-)"
    ),
    "COMBINEDAPACHELOG": r"%{COMMONAPACHELOG} %{QS:referrer} %{QS:agent}",
}


def load_pattern_file(path: str) -> dict[str, str]:
    """Parse a logstash-format pattern file: ``NAME<whitespace>regex`` per
    line, ``#`` comments and blank lines ignored. Mirrors the reference's
    grok pattern-file loading (``ref: filter/grok/`` [U-recall])."""
    out: dict[str, str] = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # split on the FIRST whitespace run (tabs included — logstash
            # files in the wild are often tab-separated)
            parts = line.split(None, 1)
            if len(parts) == 2:
                out[parts[0]] = parts[1].strip()
    return out


def load_patterns_dir(path: str) -> dict[str, str]:
    """Merge every pattern file in a directory (sorted order; later files
    override earlier names, matching logstash's patterns_dir)."""
    import os

    out: dict[str, str] = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            out.update(load_pattern_file(full))
    return out

_TOKEN = re.compile(r"%\{(\w+)(?::(\w+))?(?::(\w+))?\}")

_CAST_TYPES = {"int", "float", "string"}


@dataclass
class CompiledGrok:
    """One grok pattern compiled to a regex plus capture metadata."""

    source: str                      # original grok expression
    regex: str                       # expanded regex with (?P<name>...) groups
    captures: list[str] = field(default_factory=list)   # capture names, in order
    casts: dict[str, str] = field(default_factory=dict)  # name -> int|float|string


def compile_grok(
    pattern: str,
    extra_patterns: dict[str, str] | None = None,
) -> CompiledGrok:
    """Expand a grok expression into an RE2-compatible regex.

    ``%{NAME}`` expands inline (non-capturing); ``%{NAME:field}`` expands to a
    named capture group; ``%{NAME:field:int}`` additionally records a type
    cast applied after extraction. Unknown pattern names raise ``KeyError``.
    """
    dictionary = dict(BASE_PATTERNS)
    if extra_patterns:
        dictionary.update(extra_patterns)
    captures: list[str] = []
    casts: dict[str, str] = {}

    def expand(pat: str, depth: int) -> str:
        if depth > 16:
            raise ValueError(f"grok pattern recursion too deep in {pattern!r}")

        def repl(m: re.Match) -> str:
            name, capture, cast = m.group(1), m.group(2), m.group(3)
            if name not in dictionary:
                raise KeyError(f"unknown grok pattern %{{{name}}}")
            body = expand(dictionary[name], depth + 1)
            if capture:
                if capture in captures:
                    raise ValueError(f"duplicate capture name {capture!r}")
                captures.append(capture)
                if cast:
                    if cast not in _CAST_TYPES:
                        raise ValueError(f"unknown grok cast {cast!r}")
                    casts[capture] = cast
                return f"(?P<{capture}>{body})"
            return f"(?:{body})"

        return _TOKEN.sub(repl, pat)

    regex = expand(pattern, 0)
    # Validate with Python's re (superset of RE2 for these constructs).
    re.compile(regex)
    return CompiledGrok(source=pattern, regex=regex, captures=captures, casts=casts)
