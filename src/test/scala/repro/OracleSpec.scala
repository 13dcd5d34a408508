package repro

import org.apache.spark.sql.functions._

/** The oracle itself must fail loudly on wrong results — otherwise every
  * "matches DuckDB" test in this repo is vacuous.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("accepts an exactly matching result") {
    val df = Seq((1L, "a"), (2L, "b")).toDF("k", "v")
    Oracle.assertEquivalent(df, "SELECT k, v FROM t", "t" -> df)
  }

  test("rejects a result with a wrong value") {
    val df  = Seq((1L, "a"), (2L, "b")).toDF("k", "v")
    val bad = Seq((1L, "a"), (2L, "X")).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(bad, "SELECT k, v FROM t", "t" -> df)
    }
  }

  test("rejects a result with missing rows") {
    val df  = Seq((1L, "a"), (2L, "b")).toDF("k", "v")
    val bad = df.limit(1)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(bad, "SELECT k, v FROM t", "t" -> df)
    }
  }

  test("rejects mismatched column sets") {
    val df = Seq((1L, "a")).toDF("k", "v")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select("k"), "SELECT k, v FROM t", "t" -> df)
    }
  }

  test("is insensitive to row and column order") {
    val df = Seq((1L, "a"), (2L, "b")).toDF("k", "v")
    Oracle.assertEquivalent(
      df.orderBy(desc("k")).select("v", "k"),
      "SELECT k, v FROM t ORDER BY k",
      "t" -> df)
  }

  test("canonicalizes doubles to 6 decimal places") {
    val df = Seq((1L, 0.1 + 0.2)).toDF("k", "x") // 0.30000000000000004
    Oracle.assertEquivalent(
      df,
      "SELECT k, CAST(0.3 AS DOUBLE) AS x FROM t",
      "t" -> df.select("k"))
  }

  test("handles aggregates over multiple input tables") {
    val a = Seq((1L, 10.0), (2L, 20.0)).toDF("id", "x")
    val b = Seq((1L, 2.0), (2L, 3.0)).toDF("id", "y")
    val q = a.join(b, "id").agg(sum($"x" * $"y").as("dot"))
    Oracle.assertEquivalent(
      q,
      """SELECT sum(CAST(x AS DOUBLE) * CAST(y AS DOUBLE)) AS dot
        |FROM a JOIN b ON a.id = b.id""".stripMargin,
      "a" -> a, "b" -> b)
  }

  test("handles a grouped count over a join") {
    val o = Seq((1L, 10L), (2L, 10L), (3L, 20L), (4L, 30L)).toDF("o_id", "o_cust")
    val c = Seq((10L, "AUTO"), (20L, "AUTO"), (30L, "BUILD")).toDF("c_id", "c_seg")
    val q = o.join(c, o("o_cust") === c("c_id")).groupBy("c_seg").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      q,
      "SELECT c_seg, count(*) AS cnt FROM o JOIN c ON o.o_cust = c.c_id GROUP BY c_seg",
      "o" -> o, "c" -> c)
  }

  test("handles group-by aggregates") {
    val df = Seq(("a", 1.0), ("b", 2.0), ("a", 3.5)).toDF("k", "x")
    Oracle.assertEquivalent(
      df.groupBy("k").agg(count(lit(1)).as("cnt"), sum("x").as("total")),
      "SELECT k, count(*) AS cnt, sum(CAST(x AS DOUBLE)) AS total FROM t GROUP BY k",
      "t" -> df)
  }

  test("null values round-trip") {
    val df = Seq((1L, Some("a")), (2L, None)).toDF("k", "v")
    Oracle.assertEquivalent(df, "SELECT k, v FROM t", "t" -> df)
  }
}
