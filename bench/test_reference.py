"""Tests of the benchmark's own code: the reference computations.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import assetsvm as av
from assetsvm.model import model_to_text
from reference import (
    DECISION_RTOL,
    decisions,
    labels_of,
    moons_bayes_error,
    moons_densities,
    parse_model,
)
from workloads import Points, sparse_clusters, two_moons


def _dataset(points: Points, n: int) -> av.Dataset:
    examples = tuple(av.SparseVector(i, v) for i, v in zip(points.indices, points.values))
    return av.Dataset(examples, points.labels, n, "classification")


def _models(kind: str):
    rng = np.random.default_rng(3)
    if kind == "nystrom":
        n, sigma = 2, 2.0
        train, test = two_moons(rng, 60), two_moons(rng, 40)
        nmap = av.build_nystrom(_dataset(train, n), av.GaussianKernel(sigma), 20, 12, seed=1)
        gamma = rng.normal(size=nmap.dim)
        payload = av.recover_alpha(nmap, gamma)
    else:
        n, sigma = 1000, 0.01
        test = sparse_clusters(rng, 40)
        payload = av.build_fourier(n, 16, av.GaussianKernel(sigma), seed=1)
        gamma = rng.normal(size=16)
    model = av.Model(
        task="classification", approx=kind, gamma=gamma, b=0.25, lam=1e-3,
        sigma=sigma, input_dim=n, payload=payload,
    )
    return model, _dataset(test, n), test


@pytest.mark.parametrize("kind", ["nystrom", "fourier"])
def test_recomputed_decisions_match_the_program(kind):
    model, data, points = _models(kind)
    reference = parse_model(model_to_text(model))
    ours = decisions(reference, points)
    theirs = np.array([av.decide(model, x) for x in data.examples])
    assert np.max(np.abs(ours - theirs)) <= DECISION_RTOL * reference.term_scale()


def test_ties_go_to_plus_one():
    assert labels_of(np.array([-1e-300, 0.0, 2.0])).tolist() == [-1.0, 1.0, 1.0]


def test_bayes_error_vanishes_with_the_noise():
    errors = [moons_bayes_error(noise) for noise in (0.3, 0.15, 0.075)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] > 0.05
    assert errors[2] < 1e-4


def test_bayes_error_matches_monte_carlo_on_the_generator():
    # the error rate of the Bayes rule built from the quadrature densities,
    # on labelled points drawn from the generator itself
    noise = 0.25
    points = two_moons(np.random.default_rng(11), 40000, noise)
    p_up, p_dn = moons_densities(np.array(points.values), noise)
    estimate = float(np.mean(labels_of(p_up - p_dn) != points.labels))
    bayes = moons_bayes_error(noise)
    stderr = math.sqrt(bayes * (1.0 - bayes) / points.m)
    assert abs(estimate - bayes) <= 4.0 * stderr

