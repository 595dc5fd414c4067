import numpy as np
import pytest

from fedprompt.vlm import ModelConfig, build_assets, unit_rows


def small_config(variant="linear_pool", **overrides) -> ModelConfig:
    base = dict(prompts=1, tokens=3, d_token=8, d_feature=12, d_image=12, encoder=variant,
                tau=0.07, seed=7, token_scale=0.3)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(params=["linear_pool", "attention_block"])
def small_assets(request):
    return build_assets(small_config(request.param), 4)


def random_unit_batch(rng, n, d):
    return unit_rows(rng.normal(size=(n, d)))
