"""Training-subset selection: which kept queries a cost model trains on."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, zip_longest

MODES = ("stratified", "first_n")  # see select_training_subset


@dataclass
class SelectionSettings:
    size: int | None = None  # training-subset size; None keeps everything
    mode: str = "stratified"  # one of MODES

    def validate(self):
        if self.size is not None and self.size < 1:
            raise ValueError("size must be >= 1 when given")
        if self.mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}")


def select_training_subset(kept_records, size: int, mode: str = "stratified"):
    """Pick the training subset from the kept corpus.

    ``first_n`` takes the first ``size`` kept records; ``stratified`` takes
    them round-robin across origin/prompt-setting groups (preserving each
    group's order) so no setting dominates the training set.
    """
    if size >= len(kept_records):
        return list(kept_records)
    if mode == "first_n":
        return kept_records[:size]
    if mode != "stratified":
        raise ValueError(f"unknown selection mode {mode!r}")
    groups: dict[str, list] = {}  # setting label -> its records, labels in first-seen order
    for record in kept_records:
        groups.setdefault(record.setting_label, []).append(record)
    # each group's first record, then each group's second, and so on
    rounds = chain.from_iterable(zip_longest(*groups.values()))
    chosen = {id(record) for record in islice((r for r in rounds if r is not None), size)}
    # keep corpus order in the output for diff-friendliness
    return [record for record in kept_records if id(record) in chosen]
