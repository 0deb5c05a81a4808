"""Two-level tweet preprocessing.

Basic preprocessing tokenizes and scrubs surface noise: user handles, URLs
and e-mail addresses become placeholder tokens and letter elongations are
shortened ("holaaaa" -> "holaa").  Semantic preprocessing then lowercases,
lemmatizes, marks negated words with a ``NOT_`` prefix and finally drops
punctuation, numbers and stopwords.  Hashtags, emoji and other symbols pass
through both levels untouched.

The steps that depend on nothing but their input are memoized in bounded
``functools.lru_cache``s behind the public functions: tokenizing one
whitespace-free chunk of text, shortening one word's letter runs, and
making the word token of one surface.  Tweets repeat a small set of words,
so most calls hit.  Tokens are frozen, so the cached ones are shared.
"""

from __future__ import annotations

import enum
import functools
import re
import unicodedata
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path


class TokenKind(enum.Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"
    NUMBER = "number"
    HANDLE = "handle"
    URL = "url"
    EMAIL = "email"
    EMOJI_OR_OTHER = "emoji_or_other"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be non-empty")


HANDLE_TOKEN = "@USER"
URL_TOKEN = "URL"
EMAIL_TOKEN = "EMAIL"

#: Default negation cues for Spanish.
DEFAULT_NEGATION_WORDS = frozenset(
    {"no", "ni", "nunca", "jamás", "tampoco", "nadie", "nada", "ningún", "ninguna", "ninguno", "sin"}
)


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for both preprocessing levels.

    ``negation_scope`` is the maximum number of word tokens prefixed after a
    cue; ``repeat_cap`` is the longest run of one letter kept inside a word.
    Lemma table keys must be lowercase because lookup happens after
    lowercasing.
    """

    negation_words: frozenset[str] = DEFAULT_NEGATION_WORDS
    negation_scope: int = 3
    stopwords: frozenset[str] = frozenset()
    lemma_table: Mapping[str, str] = field(default_factory=dict)
    repeat_cap: int = 2

    def __post_init__(self) -> None:
        if self.negation_scope < 0:
            raise ValueError("negation_scope must be >= 0")
        if self.repeat_cap < 1:
            raise ValueError("repeat_cap must be >= 1")
        for key in self.lemma_table:
            if key != key.lower():
                raise ValueError(f"lemma table key {key!r} is not lowercase")


# The placeholder literals match too, so that preprocessed text can be
# re-tokenized without changing token kinds.  A literal is rejected only
# before a letter ("URLs" is a word): a digit or "_" after it is a token of
# its own, so "URL0" tokenizes as the "URL 0" that basic preprocessing renders
# it to.  The URL literal comes after e-mail addresses, so "URL0@x.com" stays
# one address.
_TOKEN_RE = re.compile(
    r"""
      (?P<url>https?://\S+|www\.\S+)
    | (?P<email>[\w.+-]+@[\w-]+(?:\.[\w-]+)+|EMAIL(?![^\W\d_]))
    | (?P<url_literal>URL(?![^\W\d_]))
    | (?P<handle>@\w+)
    | (?P<hashtag>\#\w+)
    | (?P<number>\d+)
    | (?P<word>[^\W\d_]+)
    """,
    re.VERBOSE,
)

_GROUP_KIND = {
    "url": TokenKind.URL,
    "url_literal": TokenKind.URL,
    "email": TokenKind.EMAIL,
    "handle": TokenKind.HANDLE,
    "hashtag": TokenKind.EMOJI_OR_OTHER,
    "number": TokenKind.NUMBER,
    "word": TokenKind.WORD,
}


def _is_punctuation(char: str) -> bool:
    return unicodedata.category(char).startswith("P")


#: Entries each memo keeps: more than the distinct words of a large corpus.
_MEMO_SIZE = 1 << 14


def tokenize(text: str) -> list[Token]:
    """Split a tweet into classified tokens.

    Classification depends only on the surface form: handles are ``@`` plus
    word characters, URLs start with a scheme or ``www.``, emails have the
    ``x@y.z`` shape, letter runs are words, digit runs are numbers and each
    punctuation mark is its own token.  Hashtags and anything else (emoji,
    symbols) fall into the catch-all kind and are never altered downstream.

    No token spans whitespace, so the tokens are those of each
    whitespace-separated chunk in turn (``_chunk_tokens``, memoized).
    """
    return [token for chunk in text.split() for token in _chunk_tokens(chunk)]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _chunk_tokens(chunk: str) -> tuple[Token, ...]:
    return tuple(_scan(chunk))


def _scan(text: str) -> list[Token]:
    """``tokenize`` without the memo: one left-to-right scan of the text."""
    tokens: list[Token] = []
    pos = 0
    end = len(text)
    while pos < end:
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is not None:
            assert match.lastgroup is not None
            tokens.append(Token(match.group(), _GROUP_KIND[match.lastgroup]))
            pos = match.end()
            continue
        if _is_punctuation(char):
            tokens.append(Token(char, TokenKind.PUNCTUATION))
            pos += 1
            continue
        # Group a contiguous run of symbol/emoji characters into one token.
        start = pos
        pos += 1
        while (
            pos < end
            and not text[pos].isspace()
            and not _is_punctuation(text[pos])
            and _TOKEN_RE.match(text, pos) is None
        ):
            pos += 1
        tokens.append(Token(text[start:pos], TokenKind.EMOJI_OR_OTHER))
    return tokens


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _word(surface: str) -> Token:
    """The word token of ``surface``."""
    return Token(surface, TokenKind.WORD)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _collapse_repeats(surface: str, cap: int) -> str:
    return re.sub(r"(.)\1{%d,}" % cap, lambda m: m.group(1) * cap, surface)


_HANDLE = Token(HANDLE_TOKEN, TokenKind.HANDLE)
_URL = Token(URL_TOKEN, TokenKind.URL)
_EMAIL = Token(EMAIL_TOKEN, TokenKind.EMAIL)


def basic_preprocess(tokens: Sequence[Token], config: PreprocessConfig) -> list[Token]:
    """Replace handles/URLs/emails with placeholders and cap letter runs.

    Idempotent: applying it twice equals applying it once.
    """
    out: list[Token] = []
    for token in tokens:
        if token.kind is TokenKind.HANDLE:
            out.append(_HANDLE)
        elif token.kind is TokenKind.URL:
            out.append(_URL)
        elif token.kind is TokenKind.EMAIL:
            out.append(_EMAIL)
        elif token.kind is TokenKind.WORD:
            out.append(_word(_collapse_repeats(token.surface, config.repeat_cap)))
        else:
            out.append(token)
    return out


NEGATION_PREFIX = "NOT_"


def handle_negation(tokens: Sequence[Token], config: PreprocessConfig) -> list[Token]:
    """Prefix words following a negation cue with ``NOT_``.

    After a cue, up to ``negation_scope`` word tokens are prefixed; the scope
    closes early at the first non-word token.  The cue itself is left alone,
    and a token that was just prefixed never re-triggers negation.  The number
    of tokens is always preserved.
    """
    out: list[Token] = []
    remaining = 0
    for token in tokens:
        if remaining > 0:
            if token.kind is not TokenKind.WORD:
                remaining = 0
                out.append(token)
            else:
                out.append(_word(NEGATION_PREFIX + token.surface))
                remaining -= 1
            continue
        out.append(token)
        # Lowercased membership test: inside the semantic flow surfaces are
        # already lowercase, but the function also works on raw tokens.
        if token.kind is TokenKind.WORD and token.surface.lower() in config.negation_words:
            remaining = config.negation_scope
    return out


def semantic_preprocess(tokens: Sequence[Token], config: PreprocessConfig) -> list[Token]:
    """Lowercase, lemmatize, mark negation, then drop the uninformative kinds.

    Order matters: negation runs before the stopword filter so that
    ``NOT_``-prefixed stopwords survive.  Placeholder tokens, hashtags and
    emoji are passed through unchanged.
    """
    staged: list[Token] = []
    for token in tokens:
        if token.kind is TokenKind.WORD:
            lowered = token.surface.lower()
            staged.append(_word(config.lemma_table.get(lowered, lowered)))
        else:
            staged.append(token)
    staged = handle_negation(staged, config)
    out: list[Token] = []
    for token in staged:
        if token.kind in (TokenKind.PUNCTUATION, TokenKind.NUMBER):
            continue
        if (
            token.kind is TokenKind.WORD
            and not token.surface.startswith(NEGATION_PREFIX)
            and token.surface in config.stopwords
        ):
            continue
        out.append(token)
    return out


def join_tokens(tokens: Iterable[Token]) -> str:
    """Render a token sequence back to text with single spaces."""
    return " ".join(token.surface for token in tokens)


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Read a one-word-per-line UTF-8 list (stopwords, negation cues)."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.strip()
            if word:
                words.add(word)
    return frozenset(words)


def load_lemma_table(path: str | Path) -> dict[str, str]:
    """Read a two-column TSV mapping word form to lemma; each form must be
    lowercase (see ``PreprocessConfig``)."""
    table: dict[str, str] = {}
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ValueError(f"{path}:{lineno}: expected 'form<TAB>lemma'")
            if fields[0] != fields[0].lower():
                raise ValueError(f"{path}:{lineno}: lemma table key {fields[0]!r} is not lowercase")
            table[fields[0]] = fields[1]
    return table
