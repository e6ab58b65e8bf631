"""Words in letters and their stars, with free-group reduction.

A word is a sequence of (letter index, starred) pairs over an alphabet of
L letters; adjacent x x* or x* x pairs cancel under reduction. The string
form is comma-separated 1-based letters with a trailing '*' for stars,
e.g. "1,2,1*,2*".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class StarWord:
    letters: tuple[tuple[int, bool], ...]
    alphabet: int

    def __post_init__(self):
        for idx, _ in self.letters:
            if not 1 <= idx <= self.alphabet:
                raise InvalidArgumentError(
                    f"letter {idx} outside alphabet [1,{self.alphabet}]")

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def parse(cls, text: str, alphabet: int | None = None) -> "StarWord":
        text = text.strip()
        letters = []
        if text:
            for tok in text.split(","):
                tok = tok.strip()
                star = tok.endswith("*")
                if star:
                    tok = tok[:-1]
                try:
                    idx = int(tok)
                except ValueError as exc:
                    raise InvalidArgumentError(f"bad letter token {tok!r}") from exc
                letters.append((idx, star))
        if alphabet is None:
            alphabet = max((idx for idx, _ in letters), default=1)
        return cls(tuple(letters), alphabet)

    def to_string(self) -> str:
        return ",".join(f"{idx}*" if star else str(idx)
                        for idx, star in self.letters)

    def __str__(self) -> str:
        return self.to_string() if self.letters else "(empty)"


def free_reduce(word: StarWord) -> StarWord:
    """Fully reduced representative in the free group (stack scan)."""
    stack: list[tuple[int, bool]] = []
    for letter in word.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] != letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return StarWord(tuple(stack), word.alphabet)


def is_trivial(word: StarWord) -> bool:
    """True iff the word evaluates to 1 for every family of unitaries."""
    return not free_reduce(word).letters


def all_words(alphabet: int, length: int):
    """All words of exactly the given length (reduced or not)."""
    symbols = [(idx, star) for idx in range(1, alphabet + 1)
               for star in (False, True)]
    for combo in itertools.product(symbols, repeat=length):
        yield StarWord(tuple(combo), alphabet)
