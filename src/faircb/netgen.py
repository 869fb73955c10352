"""A deterministic liver-disease style network and experiments built on top of it.

The network has 70 nodes and 123 arcs.  A small diagnostic core (risk factors,
hepatitis, fibrosis, cirrhosis, carcinoma) carries all ancestry of the
carcinoma target, so exact enumeration stays cheap; the remaining nodes are
findings and lab results hanging below the core.  ``build_network_experiment``
turns any parsed discrete network into a soft-intervention instance.
"""

from __future__ import annotations

import numpy as np

from .errors import NodeNotFound, SensitiveNotBinary
from .model import Arm, CausalModel, Instance, check_fairness_eps, validate_model

__all__ = ["liver_network", "network_states", "build_network_experiment"]

_PRESENT_ABSENT = ("present", "absent")

# Core diagnostic chain; parents of the carcinoma target close over exactly
# these ten nodes.  `sex` must keep PBC as its only child.
_CORE = (
    ("age", ("age0_30", "age31_50", "age51_65", "age65_plus"), ()),
    ("sex", ("female", "male"), ()),
    ("alcoholism", _PRESENT_ABSENT, ()),
    ("vh_amn", _PRESENT_ABSENT, ()),
    ("ChHepatitis", ("active", "persistent", "absent"), ("age", "alcoholism", "vh_amn")),
    ("fibrosis", ("severe", "moderate", "mild", "absent"), ("ChHepatitis",)),
    ("Steatosis", _PRESENT_ABSENT, ("alcoholism",)),
    ("Cirrhosis", ("decompensate", "compensate", "absent"), ("fibrosis", "Steatosis")),
    ("PBC", _PRESENT_ABSENT, ("sex", "age")),
    ("carcinoma", ("absent", "present"), ("Cirrhosis", "PBC")),
)

_FINDINGS = (
    "fatigue", "jaundice", "ascites", "edema", "anorexia", "nausea",
    "vomiting", "pruritus", "spider_naevi", "palmar_erythema", "hepatomegaly",
    "splenomegaly", "encephalopathy", "gi_bleeding", "weight_loss", "fever",
    "joint_pain", "skin_lesions", "dark_urine", "pale_stool", "bilirubin",
    "alt", "ast", "ggtp", "alk_phosphatase", "albumin", "inr",
    "platelet_count", "cholesterol", "triglycerides", "glucose", "urea",
    "creatinine", "sodium", "potassium", "ama_test", "ana_test", "hbsag",
    "hbeag", "hbv_dna", "hcv_rna", "anti_hbc", "anti_hcv", "ferritin",
    "transferrin", "afp_level", "ultrasound_echo", "liver_edge",
    "irregular_liver", "portal_hypertension", "varices", "caput_medusae",
    "hepatalgia", "flatulence", "alcohol_tolerance", "consciousness",
    "tremor", "sleep_disorder", "appetite", "muscle_wasting",
)

_FINDING_SEED = 745021


def _finding_cards() -> dict[str, int]:
    rng = np.random.default_rng(_FINDING_SEED)
    return {name: 3 if rng.random() < 0.3 else 2 for name in _FINDINGS}


def _core_cpts() -> dict[str, np.ndarray]:
    cpts: dict[str, np.ndarray] = {
        "age": np.array([[0.25, 0.30, 0.25, 0.20]]),
        "sex": np.array([[0.5, 0.5]]),
        "alcoholism": np.array([[0.30, 0.70]]),
        "vh_amn": np.array([[0.25, 0.75]]),
    }

    rows = []
    for age in range(4):
        for alco in range(2):
            for vh in range(2):
                active = 0.03 + 0.05 * age + 0.12 * (alco == 0) + 0.22 * (vh == 0)
                persistent = 0.02 + 0.03 * age + 0.08 * (alco == 0) + 0.12 * (vh == 0)
                rows.append([active, persistent, 1.0 - active - persistent])
    cpts["ChHepatitis"] = np.array(rows)

    cpts["fibrosis"] = np.array([
        [0.35, 0.30, 0.20, 0.15],
        [0.15, 0.25, 0.30, 0.30],
        [0.02, 0.08, 0.20, 0.70],
    ])

    cpts["Steatosis"] = np.array([[0.45, 0.55], [0.15, 0.85]])

    rows = []
    for fib in range(4):
        for steat in range(2):
            load = (0.55, 0.35, 0.15, 0.03)[fib] + 0.10 * (steat == 0)
            rows.append([0.6 * load, 0.4 * load, 1.0 - load])
    cpts["Cirrhosis"] = np.array(rows)

    rows = []
    for sex in range(2):
        for age in range(4):
            p = 0.02 + 0.04 * age + 0.08 * (sex == 0)
            rows.append([p, 1.0 - p])
    cpts["PBC"] = np.array(rows)

    rows = []
    for cirr in range(3):
        for pbc in range(2):
            # PBC multiplies the cirrhosis-driven risk, so soft interventions
            # upstream shift the attribute gap, not just the mean.
            p = (0.25, 0.12, 0.02)[cirr] * (1.0 + 1.2 * (pbc == 0)) + 0.02 * (pbc == 0)
            rows.append([1.0 - p, p])
    cpts["carcinoma"] = np.array(rows)
    return cpts


def network_states() -> dict[str, tuple[str, ...]]:
    """State labels per node, matching :func:`liver_network` supports."""
    states = {name: vals for name, vals, _ in _CORE}
    for name, card in _finding_cards().items():
        states[name] = ("severe", "moderate", "absent") if card == 3 else _PRESENT_ABSENT
    return states


def liver_network() -> CausalModel:
    """The fixed 70-node, 123-arc network.  Every call returns the same model."""
    nodes = [name for name, _, _ in _CORE]
    cards = {name: len(vals) for name, vals, _ in _CORE}
    parents = {name: ps for name, _, ps in _CORE}
    cpts = _core_cpts()

    # Findings take parents among the core (never `sex`, whose only child is
    # PBC) and earlier findings; 52 two-parent and 8 one-parent nodes bring
    # the arc total to 11 + 112 = 123.
    rng = np.random.default_rng(_FINDING_SEED)
    finding_cards = _finding_cards()
    pool = [name for name in nodes if name != "sex"]
    n_two = 52
    for i, name in enumerate(_FINDINGS):
        card = finding_cards[name]
        k = 2 if i < n_two else 1
        ps = tuple(sorted(rng.choice(len(pool), size=k, replace=False)))
        parent_names = tuple(pool[j] for j in ps)
        n_rows = 1
        for p in parent_names:
            n_rows *= cards[p]
        table = rng.dirichlet(np.full(card, 2.0), size=n_rows)
        nodes.append(name)
        cards[name] = card
        parents[name] = parent_names
        cpts[name] = table
        pool.append(name)

    return CausalModel(
        nodes=tuple(nodes),
        cards=cards,
        parents=parents,
        cpts=cpts,
        sensitive="sex",
        intervention="fibrosis",
        target="carcinoma",
        target_values=np.array([0.0, 1.0]),
    )


def build_network_experiment(
    model: CausalModel,
    intervention: str,
    sensitive: str,
    target: str,
    n_arms: int,
    seed: int,
    fairness_eps: float,
) -> Instance:
    """Attach randomly drawn intervention tables to a parsed network.

    Arm 0 keeps the network's own conditional at the intervention node; the
    other arms draw each row from a flat Dirichlet.  The observation set is
    the sensitive node and the read nodes (``CausalModel.read_nodes``), in
    topological order.
    """
    for name in (intervention, sensitive, target):
        if name not in model.cards:
            raise NodeNotFound(f"node {name!r} is not in the network")
    if model.cards[sensitive] != 2:
        raise SensitiveNotBinary(
            f"sensitive node {sensitive!r} has {model.cards[sensitive]} states, need 2"
        )
    if model.parents.get(sensitive, ()):
        raise SensitiveNotBinary(
            f"sensitive node {sensitive!r} has parents; marginalizing them away is not supported"
        )
    if n_arms < 1:
        raise ValueError("need at least one arm")
    check_fairness_eps(fairness_eps)

    card_y = model.cards[target]
    designated = CausalModel(
        nodes=model.nodes,
        cards=dict(model.cards),
        parents=dict(model.parents),
        cpts={x: t.copy() for x, t in model.cpts.items()},
        sensitive=sensitive,
        intervention=intervention,
        target=target,
        target_values=np.arange(card_y) / max(card_y - 1, 1),
    )

    rng = np.random.default_rng(seed)
    n_rows = designated.n_rows(intervention)
    card_v = designated.cards[intervention]
    arms = [Arm(0, designated.cpts[intervention].copy())]
    for k in range(1, n_arms):
        arms.append(Arm(k, rng.dirichlet(np.ones(card_v), size=n_rows)))

    seen = {sensitive, *designated.read_nodes()}
    instance = Instance(
        model=designated,
        arms=arms,
        name=f"network-{intervention}-K{n_arms}-seed{seed}",
        cheap_arm_constraint=False,
        observed=tuple(x for x in designated.topological_order() if x in seen),
        fairness_eps=fairness_eps,
    )
    report = validate_model(designated, instance.arms)
    if not report.ok:
        raise ValueError("network experiment failed validation: " + "; ".join(report.problems))
    return instance
