from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.llmgen import PromptSetting
from sqlsynth.records import make_record
from sqlsynth.training import select_training_subset


def make_fake_record(origin, index, setting=PromptSetting(0, "none")):
    sql = f"SELECT {'a' * (1 + index % 7)}_{index} FROM t{index}"
    if origin == "llm":
        return make_record(
            sql,
            "llm",
            "s1",
            prompt_setting=setting,
            prompt_hash="x",
            model_name="m",
        )
    return make_record(sql, "mechanical", "s1")


class TestTrainingSelection:
    def test_stratified_balances_settings(self):
        mech = [make_fake_record("mechanical", i) for i in range(20)]
        llm = [make_fake_record("llm", i) for i in range(20)]
        subset = select_training_subset(mech + llm, 10, "stratified")
        origins = [r.origin for r in subset]
        assert origins.count("mechanical") == 5
        assert origins.count("llm") == 5

    def test_first_n(self):
        mech = [make_fake_record("mechanical", i) for i in range(20)]
        llm = [make_fake_record("llm", i) for i in range(5)]
        subset = select_training_subset(mech + llm, 10, "first_n")
        assert all(r.origin == "mechanical" for r in subset)

    def test_size_beyond_corpus_keeps_everything(self):
        mech = [make_fake_record("mechanical", i) for i in range(3)]
        assert len(select_training_subset(mech, 10)) == 3


#: Setting labels a corpus draws from: the mechanical group and three prompt settings.
LABELS = ("mechanical", "0-shot:none", "3-shot:group_by", "3-shot:order_by")


def labelled_corpus(labels):
    return [
        make_fake_record("mechanical", i)
        if label == "mechanical"
        else make_fake_record("llm", i, PromptSetting.parse(label))
        for i, label in enumerate(labels)
    ]


class TestStratifiedProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(LABELS), max_size=40), st.integers(1, 45))
    def test_round_robin_over_setting_labels(self, labels, size):
        corpus = labelled_corpus(labels)
        subset = select_training_subset(corpus, size, "stratified")

        assert len(subset) == min(size, len(corpus))
        positions = [corpus.index(record) for record in subset]
        assert positions == sorted(positions)  # corpus order

        available = Counter(labels)
        picked = Counter(record.setting_label for record in subset)
        most = max(picked.values(), default=0)
        for label in available:
            if picked[label] < most - 1:
                assert picked[label] == available[label], label  # exhausted
            # each label's picks are its first records
            own = [record for record in corpus if record.setting_label == label]
            assert [r for r in subset if r.setting_label == label] == own[: picked[label]]
        # the last round's picks go to the labels seen first
        first_seen = list(dict.fromkeys(labels))
        open_labels = [label for label in first_seen if picked[label] < available[label]]
        short = [label for label in open_labels if picked[label] < most]
        assert open_labels[len(open_labels) - len(short):] == short
