#include "devices/devices.hpp"

#include <gtest/gtest.h>

namespace devices = mkbas::devices;
namespace physics = mkbas::physics;
namespace sim = mkbas::sim;

TEST(Bmp180, QuantizesToTenthsOfADegree) {
  EXPECT_DOUBLE_EQ(devices::Bmp180Sensor::quantize(21.449), 21.4);
  EXPECT_DOUBLE_EQ(devices::Bmp180Sensor::quantize(21.45), 21.5);
  EXPECT_DOUBLE_EQ(devices::Bmp180Sensor::quantize(-3.26), -3.3);
}

TEST(Bmp180, ReadingsTrackTrueTemperature) {
  physics::RoomModel room({.initial_temp_c = 22.0});
  sim::Rng rng(1);
  devices::Bmp180Sensor sensor(room, rng, 0.08);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) sum += sensor.read_temperature_c();
  EXPECT_NEAR(sum / 1000.0, 22.0, 0.05);
}

TEST(Bmp180, NoiseFreeSensorIsExactAfterQuantization) {
  physics::RoomModel room({.initial_temp_c = 21.5});
  sim::Rng rng(1);
  devices::Bmp180Sensor sensor(room, rng, 0.0);
  EXPECT_DOUBLE_EQ(sensor.read_temperature_c(), 21.5);
}

TEST(Heater, RecordsTransitions) {
  devices::HeaterActuator h(1000.0);
  EXPECT_FALSE(h.is_on());
  h.set_on(true, sim::sec(1));
  h.set_on(true, sim::sec(2));  // duplicate command: no transition
  h.set_on(false, sim::sec(3));
  ASSERT_EQ(h.transitions().size(), 2u);
  EXPECT_EQ(h.transitions()[0].time, sim::sec(1));
  EXPECT_TRUE(h.transitions()[0].on);
  EXPECT_EQ(h.transitions()[1].time, sim::sec(3));
  EXPECT_FALSE(h.transitions()[1].on);
}

TEST(Heater, FailedHeaterProducesNoHeat) {
  devices::HeaterActuator h(1000.0);
  h.set_on(true, 0);
  EXPECT_DOUBLE_EQ(h.effective_output_w(), 1000.0);
  h.fail();
  EXPECT_TRUE(h.is_on());  // still commanded on
  EXPECT_DOUBLE_EQ(h.effective_output_w(), 0.0);
  h.repair();
  EXPECT_DOUBLE_EQ(h.effective_output_w(), 1000.0);
}

TEST(AlarmLed, TogglesAndRecords) {
  devices::AlarmLed led;
  led.set_on(true, sim::sec(5));
  EXPECT_TRUE(led.is_on());
  led.set_on(false, sim::sec(6));
  EXPECT_FALSE(led.is_on());
  ASSERT_EQ(led.transitions().size(), 2u);
}

TEST(PlantCoupler, IntegratesRoomAgainstHeaterState) {
  sim::Machine m;
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 10.0});
  room.set_outdoor(physics::OutdoorSpec::constant(0.0));
  devices::HeaterActuator heater(3000.0);
  devices::AlarmLed alarm;
  devices::PlantCoupler coupler(m, room, heater, alarm);
  heater.set_on(true, 0);
  m.run_until(sim::minutes(30));
  EXPECT_GT(room.temperature_c(), 15.0);  // warmed well above start
  ASSERT_FALSE(coupler.history().empty());
  const auto& last = coupler.history().back();
  EXPECT_TRUE(last.heater_on);
  EXPECT_NEAR(last.true_temp_c, room.temperature_c(), 1e-9);
  // History is time-ordered and strictly increasing.
  for (std::size_t i = 1; i < coupler.history().size(); ++i) {
    EXPECT_GT(coupler.history()[i].time, coupler.history()[i - 1].time);
  }
}

TEST(PlantCoupler, HeaterOffMeansCooling) {
  sim::Machine m;
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 25.0});
  room.set_outdoor(physics::OutdoorSpec::constant(5.0));
  devices::HeaterActuator heater;
  devices::AlarmLed alarm;
  devices::PlantCoupler coupler(m, room, heater, alarm);
  m.run_until(sim::minutes(60));
  EXPECT_LT(room.temperature_c(), 25.0);
}
