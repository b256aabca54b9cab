"""Grammar, renderer, image glyphs, error injection, and the label oracle."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxalign.grammar.corpus import (
    CorpusFormatError,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from cxalign.grammar.image import CANVAS, render_image
from cxalign.grammar.labels import extract_labels
from cxalign.grammar.lexicon import contract_acronyms, expand_acronyms
from cxalign.grammar.render import (
    ERROR_CATEGORIES,
    inject_errors,
    make_variants,
    render_impression,
    render_report,
)
from cxalign.grammar.sampler import MAX_FINDINGS, sample_latent_study
from cxalign.grammar.types import (
    KINDS,
    LatentFinding,
    LatentStudy,
    fixed_location,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(200, seed=5)


# ---------------------------------------------------------------------------
# latent types and sampling
# ---------------------------------------------------------------------------


def test_latent_finding_invariants():
    with pytest.raises(ValueError):
        LatentFinding("cardiomegaly", "right lower", "mild", False, "none")
    with pytest.raises(ValueError):
        LatentFinding("opacity", "right lower", "mild", True, "worsened")


def test_unique_kind_location_per_study(corpus):
    for s in corpus:
        keys = [(f.kind, f.location) for f in s.latent.findings]
        assert len(keys) == len(set(keys))


def test_sampler_determinism():
    a = sample_latent_study(np.random.default_rng([1, 2]), "s0", 1)
    b = sample_latent_study(np.random.default_rng([1, 2]), "s0", 1)
    assert a == b


def test_study_holds_at_most_the_sampled_findings():
    # the type and the sampler read one limit, so every sampled study loads
    findings = tuple(
        LatentFinding(k, fixed_location(k) or "right lower", "mild", False, "none")
        for k in KINDS[: MAX_FINDINGS + 1]
    )
    assert len(LatentStudy("s0", 1, findings[:MAX_FINDINGS]).findings) == MAX_FINDINGS
    with pytest.raises(ValueError, match=f"at most {MAX_FINDINGS}"):
        LatentStudy("s0", 1, findings)


def test_default_corpus_digest_is_pinned(tmp_path):
    # The sampler's and renderers' RNG use is what keeps every corpus, and
    # through it every checkpoint and metric, reproducible: a change to it
    # must be deliberate, with this pin updated with it.
    path = tmp_path / "c.jsonl"
    write_corpus(generate_corpus(40, seed=5), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "0c62c602ace5b693dc8d042c348222cb0512c048da6e655e1974adca2e52919b"


# ---------------------------------------------------------------------------
# acronym lexicon
# ---------------------------------------------------------------------------


def test_acronym_round_trip():
    text = "There is a small granuloma in the right upper lung field."
    contracted = contract_acronyms(text)
    assert "RULF" in contracted
    assert expand_acronyms(contracted) == text


def test_expand_is_idempotent():
    text = "No PTX. There is GGO in the LLLF."
    once = expand_acronyms(text)
    assert expand_acronyms(once) == once


# ---------------------------------------------------------------------------
# label oracle exactness
# ---------------------------------------------------------------------------


def test_spec_negation_example():
    ext = extract_labels("No pneumothorax.")
    assert ext.labels == (("pneumothorax", "none", None, True, "none"),)
    assert not ext.unparsed


def _no_temporal(labels):
    return frozenset((k, loc, sev, neg, "none") for (k, loc, sev, neg, _t) in labels)


def test_oracle_round_trips_all_styles_and_variants(corpus):
    """Criterion: extraction matches latent labels for every style/variant.
    The prior-omitted variant drops temporal qualifiers by construction, so
    it matches truth with the temporal slot cleared."""
    for s in corpus:
        truth = s.latent.label_set()
        for name, text in [("original", s.findings_text), *s.variants.items()]:
            ext = extract_labels(text)
            assert not ext.unparsed, (s.study_id, text)
            expected = _no_temporal(truth) if name == "prior_omitted" else truth
            assert ext.label_set == expected, (s.study_id, name, text)
        for style in ("canonical", "verbose", "abbreviated"):
            findings_text, _ = render_report(s.latent, style)
            assert extract_labels(findings_text).label_set == truth, (style, findings_text)


def test_impression_labels_subset(corpus):
    for s in corpus:
        imp = extract_labels(s.impression_text).label_set
        truth_positive = {t for t in s.latent.label_set() if not t[3]}
        assert {t[:3] for t in imp if not t[3]} == {t[:3] for t in truth_positive}


def test_prior_omitted_clears_temporal(corpus):
    for s in corpus:
        labels = extract_labels(s.variants["prior_omitted"]).label_set
        assert all(t[4] == "none" for t in labels)


# Every sentence form of a severe finding ("new" when positive) in the right
# lower zone, or at the kind's fixed location: (canonical, paraphrase, verbose,
# impression) per (kind, negated).
SENTENCE_FORMS = {
    ('opacity', False): (
        'There is a severe opacity in the right lower lung field, new compared to the prior study.',
        'Large airspace opacity is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a severe opacity in the right lower lung field, new compared to the prior study.',
        'Severe opacity in the right lower lung field, new compared to the prior study.',
    ),
    ('opacity', True): (
        'No opacity is seen in the right lower lung field.',
        'There is no opacity in the right lower lung field.',
        'The frontal radiograph demonstrates no opacity in the right lower lung field.',
        'No opacity in the right lower lung field.',
    ),
    ('consolidation', False): (
        'There is a severe consolidation in the right lower lung field, new compared to the prior study.',
        'Large focal consolidation is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a severe consolidation in the right lower lung field, new compared to the prior study.',
        'Severe consolidation in the right lower lung field, new compared to the prior study.',
    ),
    ('consolidation', True): (
        'No consolidation is seen in the right lower lung field.',
        'There is no consolidation in the right lower lung field.',
        'The frontal radiograph demonstrates no consolidation in the right lower lung field.',
        'No consolidation in the right lower lung field.',
    ),
    ('pleural_effusion', False): (
        'There is a severe pleural effusion in the right lower lung field, new compared to the prior study.',
        'Large pleural fluid collection is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a severe pleural effusion in the right lower lung field, new compared to the prior study.',
        'Severe pleural effusion in the right lower lung field, new compared to the prior study.',
    ),
    ('pleural_effusion', True): (
        'No pleural effusion is seen in the right lower lung field.',
        'There is no pleural effusion in the right lower lung field.',
        'The frontal radiograph demonstrates no pleural effusion in the right lower lung field.',
        'No pleural effusion in the right lower lung field.',
    ),
    ('pneumothorax', False): (
        'There is a severe pneumothorax in the right lower lung field, new compared to the prior study.',
        'Large pneumothorax is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a severe pneumothorax in the right lower lung field, new compared to the prior study.',
        'Severe pneumothorax in the right lower lung field, new compared to the prior study.',
    ),
    ('pneumothorax', True): (
        'No pneumothorax is seen in the right lower lung field.',
        'There is no pneumothorax in the right lower lung field.',
        'The frontal radiograph demonstrates no pneumothorax in the right lower lung field.',
        'No pneumothorax in the right lower lung field.',
    ),
    ('cardiomegaly', False): (
        'The heart is severely enlarged, new compared to the prior study.',
        'The cardiac silhouette is severely enlarged, new compared to the prior study.',
        'The frontal radiograph demonstrates severe enlargement of the cardiac silhouette, new compared to the prior study.',
        'Severely enlarged heart, new compared to the prior study.',
    ),
    ('cardiomegaly', True): (
        'The heart size is within normal limits.',
        'The cardiac silhouette is normal in size.',
        'The cardiac silhouette is within normal limits.',
        'Heart size within normal limits.',
    ),
    ('edema', False): (
        'There is severe pulmonary edema, new compared to the prior study.',
        'Large pulmonary edema is noted, new compared to the prior study.',
        'The frontal radiograph demonstrates severe pulmonary edema, new compared to the prior study.',
        'Severe pulmonary edema, new compared to the prior study.',
    ),
    ('edema', True): (
        'No pulmonary edema is seen.',
        'There is no pulmonary edema.',
        'The frontal radiograph demonstrates no pulmonary edema.',
        'No pulmonary edema.',
    ),
    ('nodule', False): (
        'There is a 15 mm nodule in the right lower lung field, new compared to the prior study.',
        'A 15 mm nodular opacity is seen in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a 15 mm nodule in the right lower lung field, new compared to the prior study.',
        '15 mm nodule in the right lower lung field, new compared to the prior study.',
    ),
    ('nodule', True): (
        'No nodule is seen in the right lower lung field.',
        'There is no nodule in the right lower lung field.',
        'The frontal radiograph demonstrates no nodule in the right lower lung field.',
        'No nodule in the right lower lung field.',
    ),
    ('granuloma', False): (
        'There is a large calcified granuloma in the right lower lung field, new compared to the prior study.',
        'A large calcified granuloma is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a large calcified granuloma in the right lower lung field, new compared to the prior study.',
        'Large calcified granuloma in the right lower lung field, new compared to the prior study.',
    ),
    ('granuloma', True): (
        'No granuloma is seen in the right lower lung field.',
        'There is no granuloma in the right lower lung field.',
        'The frontal radiograph demonstrates no granuloma in the right lower lung field.',
        'No granuloma in the right lower lung field.',
    ),
    ('atelectasis', False): (
        'There is a severe atelectasis in the right lower lung field, new compared to the prior study.',
        'Large collapse of the lung is noted in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a severe atelectasis in the right lower lung field, new compared to the prior study.',
        'Severe atelectasis in the right lower lung field, new compared to the prior study.',
    ),
    ('atelectasis', True): (
        'No atelectasis is seen in the right lower lung field.',
        'There is no atelectasis in the right lower lung field.',
        'The frontal radiograph demonstrates no atelectasis in the right lower lung field.',
        'No atelectasis in the right lower lung field.',
    ),
    ('support_device', False): (
        'There is a support device projecting over the right lower lung field, new compared to the prior study.',
        'A support device is seen in the right lower lung field, new compared to the prior study.',
        'The frontal radiograph demonstrates a support device projecting over the right lower lung field, new compared to the prior study.',
        'Support device over the right lower lung field, new compared to the prior study.',
    ),
    ('support_device', True): (
        'No support device is seen in the right lower lung field.',
        'There is no support device in the right lower lung field.',
        'The frontal radiograph demonstrates no support device in the right lower lung field.',
        'No support device in the right lower lung field.',
    ),
}
BILATERAL_FORMS = {
    'opacity': 'Severe opacity in the bilateral lower lung fields, new compared to the prior study.',
    'consolidation': 'Severe consolidation in the bilateral lower lung fields, new compared to the prior study.',
    'pleural_effusion': 'Severe pleural effusion in the bilateral lower lung fields, new compared to the prior study.',
    'pneumothorax': 'Severe pneumothorax in the bilateral lower lung fields, new compared to the prior study.',
    'nodule': '15 mm nodule in the bilateral lower lung fields, new compared to the prior study.',
    'granuloma': 'Large calcified granuloma in the bilateral lower lung fields, new compared to the prior study.',
    'atelectasis': 'Severe atelectasis in the bilateral lower lung fields, new compared to the prior study.',
    'support_device': 'Support device over the bilateral lower lung fields, new compared to the prior study.',
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("negated", [False, True])
def test_sentence_forms_are_pinned(kind, negated):
    loc = fixed_location(kind) or "right lower"
    f = LatentFinding(kind, loc, "severe", negated, "none" if negated else "new")
    study = LatentStudy("s", 0, (f,))
    forms = (
        render_report(study, "canonical")[0],
        make_variants(study)["paraphrase"],
        render_report(study, "verbose")[0],
        render_impression([f], keep_negated=True),
    )
    assert forms == SENTENCE_FORMS[(kind, negated)]


@pytest.mark.parametrize("kind", sorted(BILATERAL_FORMS))
def test_bilateral_merge_is_pinned(kind):
    twins = [LatentFinding(kind, side, "severe", False, "new") for side in ("right lower", "left lower")]
    assert render_impression(twins) == BILATERAL_FORMS[kind]


# ---------------------------------------------------------------------------
# error injection
# ---------------------------------------------------------------------------


def test_errors_are_label_distinct(corpus):
    for s in corpus:
        truth = extract_labels(s.impression_text).label_set
        assert len(s.errors) == 3
        for category, text in s.errors:
            assert category in ERROR_CATEGORIES
            assert extract_labels(text).label_set != truth, (category, text)


def test_error_categories_vary(corpus):
    seen = {c for s in corpus for c, _ in s.errors}
    assert len(seen) >= 5


# field of the label tuple (kind, location, severity, negated, temporal) each
# one-field edit changes; the others add one finding
_EDITED_FIELD = {
    "Change Severity": 2,
    "Change Measurement": 2,
    "Change Location": 1,
    "Change Position of Device": 1,
    "False Negation": 3,
}


def test_each_error_edit_changes_only_its_field():
    """An edited impression differs from the true one in exactly the field
    its category names, or by exactly one added finding."""
    base = (
        LatentFinding("opacity", "right upper", "severe", False, "new"),
        LatentFinding("nodule", "left mid", "moderate"),
        LatentFinding("cardiomegaly", "cardiac", "mild", False, "stable"),
        LatentFinding("pneumothorax", "left upper", "mild", True),
    )
    studies = [
        LatentStudy("a", 0, base),
        LatentStudy("b", 0, base + (LatentFinding("support_device", "right lower"),)),
        LatentStudy("c", 0, base[3:]),
    ]
    seen = set()
    for study in studies:
        truth = set(extract_labels(render_impression(study.findings)).labels)
        taken = {(f.kind, f.location) for f in study.findings}
        for seed in range(40):
            for category, text in inject_errors(study, np.random.default_rng(seed)):
                seen.add(category)
                ext = extract_labels(text)
                assert not ext.unparsed, text
                edited = set(ext.labels)
                removed, added = truth - edited, edited - truth
                assert len(added) == 1, (category, text)
                (new,) = added
                if category not in _EDITED_FIELD:
                    assert not removed, (category, text)
                    if category == "Add Opposite Sentence" and truth:
                        # the negation of a finding the impression reports
                        assert new[3] and new[:2] in {t[:2] for t in truth}, text
                    else:
                        # a positive finding where the study reports none
                        assert not new[3] and new[:2] not in taken, (category, text)
                        assert category != "Add Medical Device" or new[0] == "support_device"
                    continue
                (old,) = removed
                if category == "False Negation":
                    # a negation drops severity and temporal status with it
                    assert new == (old[0], old[1], None, True, "none"), text
                else:
                    changed = {i for i in range(5) if old[i] != new[i]}
                    assert changed == {_EDITED_FIELD[category]}, (category, text)
                if category in ("Change Measurement", "Change Position of Device"):
                    assert old[0] == ("nodule" if category == "Change Measurement" else "support_device")
    # "Change Position of Device" is not reached today: a device is a
    # positive finding, and with one, three non-device categories come first
    assert seen >= set(ERROR_CATEGORIES) - {"Change Position of Device"}


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


def test_image_shape_range_determinism(corpus):
    for s in corpus[:20]:
        assert s.image.shape == (CANVAS, CANVAS)
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_severity_monotone_intensity():
    rng = np.random.default_rng(0)
    imgs = {}
    for sev in ("mild", "moderate", "severe"):
        f = LatentFinding("consolidation", "right lower", sev, False, "none")
        study = LatentStudy("s0", 0, (f,))
        imgs[sev] = render_image(study, rng=None, noise_sigma=0.0)
    assert imgs["mild"].sum() < imgs["moderate"].sum() < imgs["severe"].sum()


def test_negated_finding_leaves_canvas_blank():
    f = LatentFinding("pneumothorax", "left upper", "mild", True, "none")
    img = render_image(LatentStudy("s0", 0, (f,)), rng=None, noise_sigma=0.0)
    blank = render_image(LatentStudy("s1", 0, ()), rng=None, noise_sigma=0.0)
    np.testing.assert_array_equal(img, blank)


def test_negative_noise_rejected():
    with pytest.raises(ValueError):
        render_image(LatentStudy("s0", 0, ()), np.random.default_rng(0), noise_sigma=-0.1)


# ---------------------------------------------------------------------------
# corpus serialization
# ---------------------------------------------------------------------------


def test_generate_corpus_deterministic():
    a = generate_corpus(25, seed=9)
    b = generate_corpus(25, seed=9)
    for x, y in zip(a, b):
        assert x.latent == y.latent
        assert x.findings_text == y.findings_text
        assert x.variants == y.variants
        assert x.errors == y.errors
        np.testing.assert_array_equal(x.image, y.image)


def test_corpus_round_trip(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus[:30], path)
    loaded = read_corpus(path)
    for x, y in zip(corpus[:30], loaded):
        assert x.latent == y.latent
        assert x.variants == y.variants
        np.testing.assert_array_equal(x.image, y.image)
    # byte-identical on rewrite
    path2 = tmp_path / "again.jsonl"
    write_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_corpus_write_that_fails_leaves_the_previous_file(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus[:3], path)
    before = path.read_bytes()

    def studies():  # fails after two whole lines, at a line boundary
        yield from corpus[3:5]
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_corpus(studies(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_malformed_corpus_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"not": "a study"}\n')
    with pytest.raises(CorpusFormatError, match="line 1"):
        read_corpus(path)


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_finding_with_unknown_or_missing_key_reports_line(tmp_path, edit):
    path = tmp_path / "corpus.jsonl"
    write_corpus(generate_corpus(6, seed=5), path)
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["findings"])
    d = json.loads(lines[i])
    if edit == "unknown":
        d["findings"][0]["laterality"] = "right"
    else:
        del d["findings"][0]["severity"]
    lines[i] = json.dumps(d, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=f"line {i + 1}:"):
        read_corpus(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_property_random_studies(seed):
    """Any sampled study round-trips through every rendering style."""
    rng = np.random.default_rng([seed, 0])
    study = sample_latent_study(rng, f"s{seed}", seed)
    truth = study.label_set()
    findings_text, impression = render_report(study, "canonical")
    assert extract_labels(findings_text).label_set == truth
    for name, text in make_variants(study, findings_text).items():
        expected = _no_temporal(truth) if name == "prior_omitted" else truth
        assert extract_labels(text).label_set == expected


def test_kind_coverage(corpus):
    seen = {f.kind for s in corpus for f in s.latent.findings}
    assert seen == set(KINDS)
