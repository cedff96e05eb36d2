"""Encoder + VLAD bundle: parameters in checkpoint order and seeded init.

A descriptor is ``vlad.aggregate(m.vlad, encoder.encode(m.encoder, image))``
with gradients, or the same definitions on ``m.as_arrays()`` without.
Queries are always represented by their full-map descriptor; only gallery
feature maps are decomposed into regions, all of a map's regions at once by
``vlad.aggregate_regions``. Training and ``trainer.encode_images`` (which
gives the teacher's region matrices and every gradient-free descriptor) run
both on stacks of images through one loop, ``trainer.describe_chunks``.
Training then scores each batch once: its queries against one stack of its
gallery images' region rows, in one ``supervision.score_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from . import encoder as enc
from . import vlad


@dataclass
class Model:
    encoder: enc.EncoderParams
    vlad: vlad.VladParams

    def parameters(self) -> list[ag.Tensor]:
        return self.encoder.tensors() + [self.vlad.centers]

    def as_arrays(self) -> "Model":
        """The same parameters on array leaves: a forward pass records no graph."""
        return Model(self.encoder.as_arrays(), self.vlad.as_arrays())

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    @property
    def descriptor_dim(self) -> int:
        return self.vlad.k * self.vlad.dim


def init_model(
    seed: int,
    sample_images: Sequence[np.ndarray],
    k: int = vlad.DEFAULT_K,
    freeze_early: bool = False,
) -> Model:
    """Fresh model: seeded encoder, then k-means centers over its features.

    The sample images share one shape; they are encoded as one stack.

    The same seed and sample images always produce bit-identical parameters,
    which is what lets every generation restart from the same initialization.
    """
    params = enc.init_encoder(seed)
    fms = enc.encode(params.as_arrays(), list(sample_images))
    features = fms.reshape(fms.shape[0], -1).T  # one row per position, image by image
    centers = vlad.init_centers(features, k, seed)
    if freeze_early:
        params.freeze_all_but_last()
    return Model(encoder=params, vlad=vlad.VladParams(centers=ag.parameter(centers)))
