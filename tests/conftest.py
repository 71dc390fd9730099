import aspectsent  # noqa: F401  (first: it pins BLAS to one thread before numpy loads)

import json
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from aspectsent import model
from aspectsent.ingest import RawTweet

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def make_tweet(
    tweet_id="1",
    when="2020-03-01T00:00:00Z",
    text="china update",
    lang="en",
    user_id="u1",
    user_name="alice",
    group_tags=(),
    bot_flag=None,
):
    dt = datetime.fromisoformat(when.replace("Z", "+00:00")).astimezone(timezone.utc)
    return RawTweet(
        id=tweet_id,
        created_at=dt,
        text=text,
        lang=lang,
        user_id=user_id,
        user_name=user_name,
        group_tags=frozenset(group_tags),
        bot_flag=bot_flag,
    )


def init_params(dim: int, seed: int) -> model.HeadParams:
    """The heads `model.train` starts from at `seed`: W ~ uniform(-1/sqrt(d),
    1/sqrt(d)) from the seeded generator; b = 0."""
    return model._init_from_rng(np.random.default_rng(seed), dim)


def corpus_line(tweet_id="1", when="2020-03-01T00:00:00Z", text="china update",
                lang="en", user_id="u1", user_name="alice", **extra):
    obj = {
        "id": tweet_id,
        "created_at": when,
        "text": text,
        "lang": lang,
        "user": {"id": user_id, "screen_name": user_name},
    }
    obj.update(extra)
    return json.dumps(obj)


@pytest.fixture
def day():
    return date(2020, 3, 1)
