package repro

import org.apache.spark.serializer.KryoSerializer

/** The forked test JVM runs Spark as spark-submit would. */
class SparkJvmSpec extends SparkSpec {

  // The block manager spills a byte-array block (a task binary) to disk with
  // Kryo when execution or storage memory runs short.
  test("Kryo round-trips a byte array, as a block spill to disk does") {
    val kryo = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    val bytes = Array[Byte](1, 2, 3)
    assert(kryo.deserialize[Array[Byte]](kryo.serialize(bytes)).sameElements(bytes))
  }
}
