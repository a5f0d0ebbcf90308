"""Unit tests for the Shares schema and the join upper-bound formulas."""

from __future__ import annotations

import math

import pytest

from repro.datagen import chain_join_instance, multiway_join_oracle, star_join_instance
from repro.exceptions import ConfigurationError
from repro.problems import (
    JoinQuery,
    MultiwayJoinProblem,
    NaturalJoinProblem,
    TriangleProblem,
    star_join_replication_lower_bound,
)
from repro.schemas import (
    SharesSchema,
    chain_join_replication_upper_bound,
    chain_join_shares,
    star_join_replication_upper_bound,
    star_join_shares,
)


class TestSharesSchemaConstruction:
    def test_rejects_unknown_attributes(self):
        with pytest.raises(ConfigurationError):
            SharesSchema(JoinQuery.binary_join(), {"Z": 2}, domain_size=4)

    def test_rejects_bad_share(self):
        with pytest.raises(ConfigurationError):
            SharesSchema(JoinQuery.binary_join(), {"B": 0}, domain_size=4)

    def test_rejects_bad_domain(self):
        with pytest.raises(ConfigurationError):
            SharesSchema(JoinQuery.binary_join(), {"B": 2}, domain_size=0)

    def test_missing_attributes_default_to_share_one(self):
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 3}, domain_size=4)
        assert schema.shares == {"A": 1, "B": 3, "C": 1}
        assert schema.num_reducers == 3

    def test_replication_of_relation(self):
        # Partition only on B: tuples of R(A,B) and S(B,C) know their B bucket,
        # so neither is replicated; partition on A would replicate S.
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 3}, domain_size=4)
        assert schema.replication_of("R") == 1
        assert schema.replication_of("S") == 1
        schema2 = SharesSchema(JoinQuery.binary_join(), {"A": 2, "C": 3}, domain_size=4)
        assert schema2.replication_of("R") == 3
        assert schema2.replication_of("S") == 2

    def test_replication_of_unknown_relation(self):
        schema = SharesSchema(JoinQuery.binary_join(), {"B": 2}, domain_size=4)
        with pytest.raises(ConfigurationError):
            schema.replication_of("X")

    def test_reducers_for_tuple(self):
        schema = SharesSchema(JoinQuery.binary_join(), {"A": 2, "B": 2, "C": 2}, domain_size=4)
        points = list(schema.reducers_for("R", (1, 3)))
        # R tuples know A and B coordinates, so they fan out over C only.
        assert len(points) == 2
        assert all(len(point) == 3 for point in points)

    def test_reducers_for_wrong_arity(self):
        schema = SharesSchema(JoinQuery.binary_join(), {}, domain_size=4)
        with pytest.raises(ConfigurationError):
            list(schema.reducers_for("R", (1, 2, 3)))


class TestSharesSchemaOnModelDomain:
    def test_build_valid_for_binary_join(self):
        problem = NaturalJoinProblem(3)
        schema_family = SharesSchema(problem.query, {"B": 3}, domain_size=3)
        schema = schema_family.build(problem)
        assert schema.validate().valid
        # Hash-partitioning only on the shared attribute never replicates.
        assert schema.replication_rate() == pytest.approx(1.0)

    def test_build_valid_for_chain_join_with_replication(self):
        query = JoinQuery.chain(3)
        problem = MultiwayJoinProblem(query, 3)
        schema_family = SharesSchema(query, chain_join_shares(3, 4), domain_size=3)
        schema = schema_family.build(problem)
        assert schema.validate().valid
        assert schema.replication_rate() == pytest.approx(
            schema_family.replication_rate_formula()
        )

    def test_build_valid_for_star_join(self):
        query = JoinQuery.star(2)
        problem = MultiwayJoinProblem(query, 2)
        schema_family = SharesSchema(query, star_join_shares(2, 4), domain_size=2)
        schema = schema_family.build(problem)
        assert schema.validate().valid

    def test_build_rejects_mismatched_problem(self):
        schema_family = SharesSchema(JoinQuery.chain(3), {}, domain_size=3)
        with pytest.raises(ConfigurationError):
            schema_family.build(TriangleProblem(5))
        with pytest.raises(ConfigurationError):
            schema_family.build(MultiwayJoinProblem(JoinQuery.chain(3), 4))

    def test_max_reducer_size_formula_counts_fragments(self):
        query = JoinQuery.binary_join()
        schema = SharesSchema(query, {"A": 2, "B": 2, "C": 2}, domain_size=4)
        # Each relation has 16 tuples spread over 4 coordinate pairs -> 4 each.
        assert schema.max_reducer_size_formula() == pytest.approx(8.0)


class TestSharesJobExecution:
    def test_chain_join_results_match_oracle(self, engine):
        query = JoinQuery.chain(3)
        relations = chain_join_instance(3, 12, 5, seed=31)
        schema = SharesSchema(query, chain_join_shares(3, 8), domain_size=5)
        records = SharesSchema.input_records(relations)
        result = engine.run(schema.job(relations), records)
        _, expected_rows = multiway_join_oracle(relations)
        assert sorted(result.outputs) == sorted(expected_rows)
        assert len(result.outputs) == len(set(result.outputs))

    def test_binary_join_results_match_oracle(self, engine):
        query = JoinQuery.binary_join()
        from repro.datagen import binary_join_instance

        r, s = binary_join_instance(15, 15, 6, seed=32)
        schema = SharesSchema(query, {"A": 2, "C": 2}, domain_size=6)
        records = SharesSchema.input_records([r, s])
        result = engine.run(schema.job([r, s]), records)
        _, expected_rows = multiway_join_oracle([r, s])
        assert sorted(result.outputs) == sorted(expected_rows)
        # Every R tuple goes to 2 reducers (share of C), every S tuple to 2.
        assert result.replication_rate == pytest.approx(2.0)

    def test_star_join_results_match_oracle(self, engine):
        query = JoinQuery.star(2)
        fact, dimensions = star_join_instance(2, 20, 8, 5, seed=33)
        relations = [fact] + dimensions
        schema = SharesSchema(query, star_join_shares(2, 4), domain_size=5)
        records = SharesSchema.input_records(relations)
        result = engine.run(schema.job(relations), records)
        _, expected_rows = multiway_join_oracle(relations)
        assert sorted(result.outputs) == sorted(expected_rows)

    def test_job_requires_all_relations(self):
        query = JoinQuery.chain(3)
        relations = chain_join_instance(3, 5, 4, seed=34)
        schema = SharesSchema(query, {}, domain_size=4)
        with pytest.raises(ConfigurationError):
            schema.job(relations[:2])


class TestShareVectors:
    def test_chain_join_shares_shape(self):
        shares = chain_join_shares(4, 27)
        assert shares["A0"] == 1 and shares["A4"] == 1
        assert shares["A1"] == shares["A2"] == shares["A3"] == 3

    def test_chain_join_shares_validation(self):
        with pytest.raises(ConfigurationError):
            chain_join_shares(1, 4)
        with pytest.raises(ConfigurationError):
            chain_join_shares(3, 0)

    def test_star_join_shares_shape(self):
        shares = star_join_shares(2, 9)
        assert shares["K1"] == shares["K2"] == 3
        assert shares["V1"] == shares["V2"] == 1

    def test_star_join_shares_validation(self):
        with pytest.raises(ConfigurationError):
            star_join_shares(0, 4)
        with pytest.raises(ConfigurationError):
            star_join_shares(2, 0)


class TestJoinClosedForms:
    def test_chain_upper_bound(self):
        assert chain_join_replication_upper_bound(100, 25, 3) == pytest.approx(
            (100 / 5.0) ** 2
        )
        assert chain_join_replication_upper_bound(100, 0, 3) == float("inf")

    def test_star_bounds_relationship(self):
        """The upper bound exceeds the lower bound and both decrease with q."""
        f, d0, N = 1e6, 1e3, 3
        for q in (1e4, 1e5, 1e6):
            lower = star_join_replication_lower_bound(f, d0, q, N)
            upper = star_join_replication_upper_bound(f, d0, q, N)
            assert upper >= lower
        lower_small_q = star_join_replication_lower_bound(f, d0, 1e4, N)
        lower_large_q = star_join_replication_lower_bound(f, d0, 1e6, N)
        assert lower_small_q > lower_large_q

    def test_star_bounds_constant_factor_in_replicated_regime(self):
        """When the dimension-table term dominates (small q), the upper bound
        exceeds the lower bound by roughly the constant factor (1/e)^{N-1}
        with e = 1/2, i.e. 2^{N-1}, as Section 5.5.2 argues."""
        f, d0, N = 1e4, 1e3, 3
        q = 5e2
        lower = star_join_replication_lower_bound(f, d0, q, N)
        upper = star_join_replication_upper_bound(f, d0, q, N)
        assert lower > 1.0
        ratio = upper / lower
        assert 1.0 <= ratio <= 2 ** (N - 1) + 2.0
