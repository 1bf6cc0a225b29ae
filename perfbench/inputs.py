"""Seeded synthetic cohorts: the only data the benchmark hands the package.

A workload's population is fixed: its allele frequencies (maf ~
U(0.05, 0.5) per SNP), causal SNPs and effect sizes come from
:data:`POPULATION_SEED`.  The run's seed draws the cohort from it:
genotypes are 0/1/2 minor-allele counts from Binomial(2, maf), and each
phenotype is an additive plus pairwise-epistatic signal on the shared
causal SNPs, scaled to a heritability of one half, plus Gaussian noise,
standardized on the training rows.  Fixing the population keeps the
accuracy metrics comparable across seeds.  The same seed gives bitwise
the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cohort", "make_cohort"]

HERITABILITY = 0.5
CAUSAL_FRACTION = 1 / 8
POPULATION_SEED = 20240917


@dataclass(frozen=True)
class Cohort:
    train_genotypes: np.ndarray   # (n_train, n_snps) int8
    train_phenotypes: np.ndarray  # (n_train, n_phenotypes) float64
    test_genotypes: np.ndarray    # (n_test, n_snps) int8
    test_phenotypes: np.ndarray   # (n_test, n_phenotypes) float64


def make_cohort(seed: int, n_train: int, n_snps: int, n_phenotypes: int,
                n_test: int) -> Cohort:
    population = np.random.default_rng(POPULATION_SEED)
    maf = population.uniform(0.05, 0.5, n_snps)
    causal = population.choice(n_snps, size=max(2, int(n_snps * CAUSAL_FRACTION)),
                               replace=False)
    additive = population.standard_normal((causal.size, n_phenotypes))
    epistatic = population.standard_normal((causal.size // 2, n_phenotypes))

    rng = np.random.default_rng(seed)
    n = n_train + n_test
    genotypes = rng.binomial(2, maf, size=(n, n_snps)).astype(np.int8)
    x = genotypes[:, causal].astype(np.float64)
    x -= x.mean(axis=0)
    signal = x @ additive + (x[:, 0::2] * x[:, 1::2]) @ epistatic
    signal /= signal.std(axis=0)
    noise = rng.standard_normal((n, n_phenotypes))
    y = np.sqrt(HERITABILITY) * signal + np.sqrt(1.0 - HERITABILITY) * noise
    y = (y - y[:n_train].mean(axis=0)) / y[:n_train].std(axis=0)
    return Cohort(genotypes[:n_train], y[:n_train],
                  genotypes[n_train:], y[n_train:])
